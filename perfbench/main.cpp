// perfbench - the layer-attributed serving benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Sets the workload's world up kSetups times (setup_s is the median), then
// runs it closed loop for --seconds of host time in half-second slices and
// reports totals over the untraced slices (p50 is the mean of the per-slice
// p50s; p99 the lower quartile of the per-slice p99s). Host-time figures of
// the window and of each set-up are normalized to a nominal host speed by a
// reference workload run right after each, and the kill part of restart_ms
// by a guest-RAM wipe timed next to it (reference.h). With --trace 0 every
// slice is untraced and the end-to-end metrics are printed; with --trace 1
// odd slices are traced and the per-layer metrics are printed (their ns
// figures come from traced slices, the tracing overhead from comparing the
// two kinds).
// After the window, load stops, what is in flight drains, and -- unless the
// workload restarts the server itself -- the server is killed and rebooted
// kTailRestarts times for restart_ms. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reference.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 15;
constexpr int kTailRestarts = 128;
constexpr int kTailBlock = 16;  // tail restarts between two wipe references
constexpr std::int64_t kStallNs = 2'000'000'000;
// Reference requests run after each slice (~10 ms, a few % of it) and after
// each set-up (~2 ms).
constexpr int kRefOps = 100000;
constexpr int kRefSetupOps = 20000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// Replies that make up the deterministic modeled window at the start of the
// timed run: modeled_cycles_per_req and server_heap_peak_mib are read when
// it closes, so they repeat exactly for a fixed seed.
std::uint64_t ModeledWindow(const std::string& workload) {
  if (workload == "resp-pipelined" || workload == "udp-kv-4q") {
    return 200000;
  }
  return workload == "resp-pingpong" ? 50000 : 20000;
}

// Host time scaled to the reference host speed (see reference.h): |ref_ns| is
// the reference's ns per op measured next to the time being scaled.
double Normalized(double host, double ref_ns) {
  return host * ReferenceWork::kNominalNs / ref_ns;
}

struct Slice {
  bool traced = false;
  double seconds = 0.0;
  std::uint64_t replies = 0;
  std::int64_t serving_ns = 0;
  double ref_ns = ReferenceWork::kNominalNs;  // measured right after the slice
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t above_p99 = 0;
  double Rps() const { return seconds > 0.0 ? static_cast<double>(replies) / seconds : 0.0; }
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Row& r : rows_) {
      std::printf("  %-42s %16.6f %s\n", r.name.c_str(), r.value, r.unit);
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
      out += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double Ratio(std::uint64_t num, std::uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

double MedianRestart(const std::vector<RestartSample>& rs, double RestartSample::*field) {
  std::vector<double> v;
  for (const RestartSample& r : rs) {
    v.push_back(r.*field);
  }
  return Median(std::move(v));
}

// Boot stages by the name the per-layer metric uses: the platform stages by
// their kind, inittab entries by their entry name.
std::string StageMetric(const std::string& stage) {
  const std::size_t colon = stage.find(':');
  const std::string kind = stage.substr(0, colon);
  std::string name;
  if (kind == "plat") {
    name = "paging";
  } else if (kind == "alloc" || kind == "sched") {
    name = kind;
  } else {
    name = colon == std::string::npos ? stage : stage.substr(colon + 1);
  }
  return "ukboot.stage." + name + "_us";
}

const char* const kStageMetrics[] = {
    "ukboot.stage.paging_us",     "ukboot.stage.alloc_us",   "ukboot.stage.sched_us",
    "ukboot.stage.virtio-net_us", "ukboot.stage.blockfs_us", "ukboot.stage.netstack_us",
    "ukboot.stage.redis_us",      "ukboot.stage.kvstore_us"};

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atoi(v);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

std::unique_ptr<Workload> Make(const Options& o, Ledger* ledger) {
  if (o.workload == "udp-kv-4q") {
    return MakeUdpWorkload(o.seed, ledger);
  }
  if (o.workload == "resp-pipelined" || o.workload == "resp-pingpong" ||
      o.workload == "durable-restart") {
    return MakeRespWorkload(o.workload, o.seed, ledger);
  }
  return nullptr;
}

// Steps until |done| holds, failing what is left after kStallNs without a
// verified reply. Returns false on a stall.
template <typename Done>
bool StepUntil(Workload* w, std::vector<std::int64_t>* lat, Done done) {
  std::int64_t last = NowNs();
  while (!done()) {
    lat->clear();
    if (w->Step(lat) > 0) {
      last = NowNs();
    } else if (NowNs() - last > kStallNs) {
      w->FailOutstanding();
      return false;
    }
  }
  return true;
}

int Run(const Options& o) {
  Ledger ledger;
  ReferenceWork ref;
  WipeReference wipe(kGuestRamBytes);
  std::vector<double> restart_wipe_ms;  // the wipe reference next to each restart
  std::vector<double> setup_s;       // host seconds
  std::vector<double> setup_norm_s;  // each normalized by the reference after it
  std::unique_ptr<Workload> w;
  // The reference pauses the whole world, so a request in flight across the
  // last pause had it added to its latency: it is taken out again.
  std::int64_t pause_end = 0;
  std::int64_t pause_ns = 0;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const std::int64_t t0 = NowNs();
    w = Make(o, &ledger);
    const std::int64_t t1 = NowNs();
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: workload '%s' did not set up\n", o.workload.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_norm_s.push_back(Normalized(setup_s.back(), ref.NsPerOp(kRefSetupOps)));
    pause_end = NowNs();
    pause_ns = pause_end - t1;
  }

  // ---- timed window --------------------------------------------------------
  ledger.Reset();
  const Counters start = w->Snapshot();
  const std::vector<std::int64_t> busy0 = w->QueueBusyNs();
  const std::uint64_t modeled_target = ModeledWindow(o.workload);
  Counters modeled_end;
  bool modeled_done = false;
  bool stalled = false;
  const std::int64_t window_ns = std::int64_t{o.seconds} * 1'000'000'000;
  const std::int64_t slice_ns = std::min<std::int64_t>(500'000'000, window_ns / 4);
  std::vector<Slice> slices;
  std::vector<std::int64_t> lat;
  Histogram slice_lat;
  std::uint64_t untraced_samples = 0;
  std::uint64_t total = 0;
  const std::int64_t begin = NowNs();
  std::int64_t last_progress = begin;
  for (int s = 0; !stalled; ++s) {
    Slice slice;
    slice.traced = o.trace && s % 2 == 1;
    ledger.set_enabled(slice.traced);
    slice_lat.Clear();
    const std::int64_t serving0 = ledger.ServingNs();
    const std::int64_t t0 = NowNs();
    std::int64_t now = t0;
    // A slice does not end inside a restart, so no pause lands in restart_ms.
    while (now - t0 < slice_ns || w->restart_pending()) {
      lat.clear();
      const std::size_t n = w->Step(&lat);
      now = NowNs();
      if (!slice.traced) {
        for (std::int64_t ns : lat) {
          slice_lat.Add(now - ns < pause_end ? ns - pause_ns : ns);
        }
      }
      slice.replies += n;
      total += n;
      if (n > 0) {
        last_progress = now;
      } else if (now - last_progress > kStallNs) {
        stalled = true;
        break;
      }
      if (!modeled_done && total >= modeled_target) {
        modeled_end = w->Snapshot();
        modeled_done = true;
      }
    }
    slice.seconds = static_cast<double>(now - t0) / 1e9;
    slice.serving_ns = ledger.ServingNs() - serving0;
    if (!slice.traced) {
      untraced_samples += slice_lat.count();
      slice.p50_ns = slice_lat.Percentile(0.50);
      slice.p99_ns = slice_lat.Percentile(0.99);
      slice.above_p99 = slice_lat.CountAbove(slice.p99_ns);
    }
    slice.ref_ns = ref.NsPerOp(kRefOps);
    if (w->restarts().size() > restart_wipe_ms.size()) {
      // Only after slices with a restart: a wipe evicts the server's caches.
      restart_wipe_ms.resize(w->restarts().size(), wipe.Ms());
    }
    pause_end = NowNs();
    pause_ns = pause_end - now;
    slices.push_back(slice);
    if (now - begin >= window_ns && modeled_done) {
      break;
    }
  }
  ledger.set_enabled(false);
  const Counters end = w->Snapshot();
  const std::vector<std::int64_t> busy1 = w->QueueBusyNs();
  const bool ledger_ok = ledger.depth() == 0 &&
                         ledger.traced().SelfSum() == ledger.traced().root_ns &&
                         ledger.untraced().SelfSum() == ledger.untraced().root_ns;

  // ---- drain, then the restart tail ----------------------------------------
  if (stalled) {
    w->FailOutstanding();
  }
  w->StopLoad();
  bool tail_ok = !stalled && StepUntil(w.get(), &lat, [&] { return w->Idle(); });
  // A workload that restarts as part of its load (durable-restart) reports
  // those restarts only: tail reboots would replay whatever AOF tail the
  // window happened to end on, a second population for the median to straddle.
  const int tail_restarts = w->restarts().empty() ? kTailRestarts : 0;
  for (int i = 0; i < tail_restarts && tail_ok; ++i) {
    w->Restart();
    tail_ok = StepUntil(w.get(), &lat,
                        [&] { return !w->restart_pending() && w->Idle(); });
    if ((i + 1) % kTailBlock == 0) {
      restart_wipe_ms.resize(w->restarts().size(), wipe.Ms());
    }
  }
  restart_wipe_ms.resize(w->restarts().size(), wipe.Ms());
  const Counters fin = w->Snapshot();
  const std::vector<RestartSample>& restarts = w->restarts();

  const bool correct = fin.failed == 0 && tail_ok && ledger_ok && modeled_done &&
                       !restarts.empty();

  // ---- report ---------------------------------------------------------------
  // Throughput and server time are totals over the untraced slices, each
  // slice's host time normalized by the reference measured right after it:
  // the host drifts in speed from one half second to the next, and the total
  // averages that out where a median of slices does not.
  Slice untraced;
  Slice traced;
  double untraced_norm_s = 0.0;
  double untraced_norm_serving_ns = 0.0;
  double traced_norm_s = 0.0;
  for (const Slice& s : slices) {
    Slice& sum = s.traced ? traced : untraced;
    sum.seconds += s.seconds;
    sum.replies += s.replies;
    sum.serving_ns += s.serving_ns;
    if (s.traced) {
      traced_norm_s += Normalized(s.seconds, s.ref_ns);
    } else {
      untraced_norm_s += Normalized(s.seconds, s.ref_ns);
      untraced_norm_serving_ns += Normalized(static_cast<double>(s.serving_ns), s.ref_ns);
    }
  }
  // Latency percentiles are taken per slice and normalized by its reference.
  // p50 is the mean over slices. p99 is the lower quartile over slices: host
  // interference (other tenants, interrupts) comes and goes and inflates the
  // tail of the slices it hits, while the server's own slow turns (BGSAVE
  // chunks, fsyncs) recur in every slice and stay in the figure.
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  std::vector<double> slice_ref;
  std::uint64_t min_above_p99 = untraced_samples;
  for (const Slice& s : slices) {
    slice_ref.push_back(s.ref_ns);
    if (!s.traced) {
      slice_p50.push_back(Normalized(s.p50_ns, s.ref_ns));
      slice_p99.push_back(Normalized(s.p99_ns, s.ref_ns));
      min_above_p99 = std::min(min_above_p99, s.above_p99);
    }
  }
  double p50_ns = 0.0;
  for (double v : slice_p50) {
    p50_ns += v / static_cast<double>(slice_p50.size());
  }
  const double p99_ns = QuartilesOf(slice_p99).q1;
  const std::uint64_t window_replies = end.replies - start.replies;
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::vector<double> slice_rps;
  for (const Slice& s : slices) {
    if (!s.traced) {
      slice_rps.push_back(s.Rps());
    }
  }
  std::printf("  window: %zu slices (untraced throughput quartile spread %.3f: how much "
              "the host's speed drifted), %llu verified replies, %llu latency samples "
              "(untraced), >= %llu above p99 in every untraced slice\n",
              slices.size(), QuartileSpread(slice_rps),
              static_cast<unsigned long long>(window_replies),
              static_cast<unsigned long long>(untraced_samples),
              static_cast<unsigned long long>(min_above_p99));
  std::printf("  run: attempted=%llu failed=%llu failed_ratio=%.6f restarts=%zu%s%s\n",
              static_cast<unsigned long long>(fin.attempted),
              static_cast<unsigned long long>(fin.failed),
              Ratio(fin.failed, std::max<std::uint64_t>(fin.attempted, 1)), restarts.size(),
              stalled || !tail_ok ? " STALLED" : "", ledger_ok ? "" : " LEDGER-MISMATCH");
  std::printf("  host: reference %.1f ns/op (median over slices, quartile spread %.3f; "
              "nominal %.0f); unnormalized: throughput %.1f 1/s, server %.1f ns/req, "
              "set-up %.6f s\n",
              Median(slice_ref), QuartileSpread(slice_ref), ReferenceWork::kNominalNs,
              untraced.Rps(),
              Ratio(static_cast<double>(untraced.serving_ns), static_cast<double>(untraced.replies)),
              Median(setup_s));
  std::vector<double> restart_ms;
  for (const RestartSample& r : restarts) {
    restart_ms.push_back(r.restart_ms);
  }
  const Quartiles rq = QuartilesOf(restart_ms);
  // The kill part of each restart is scaled by the wipe reference measured
  // right after it; the boot, reconnect (and recovery) part stays host time.
  std::vector<double> restart_norm_ms;
  for (std::size_t i = 0; i < restarts.size(); ++i) {
    const RestartSample& r = restarts[i];
    restart_norm_ms.push_back(r.restart_ms - r.kill_ms +
                              r.kill_ms * WipeReference::kNominalMs / restart_wipe_ms[i]);
  }
  std::printf("  restarts: %zu, unnormalized restart_ms quartiles %.4f %.4f %.4f; wipe "
              "reference %.3f ms (median; nominal %.1f)\n",
              restarts.size(), rq.q1, rq.q2, rq.q3, Median(restart_wipe_ms),
              WipeReference::kNominalMs);
  if (fin.largest_persist_file != 0) {
    std::printf("  persist: largest snapshot or AOF segment %.2f MiB\n",
                static_cast<double>(fin.largest_persist_file) / (1 << 20));
  }

  Metrics m;
  auto per_req = [&](double v) { return Ratio(v, static_cast<double>(window_replies)); };
  if (!o.trace) {
    m.Add("setup_s", Median(setup_norm_s), "s");
    m.Add("throughput_rps", Ratio(static_cast<double>(untraced.replies), untraced_norm_s), "1/s");
    m.Add("latency_p50_us", p50_ns / 1e3, "us");
    m.Add("latency_p99_us", p99_ns / 1e3, "us");
    m.Add("server_ns_per_req",
          Ratio(untraced_norm_serving_ns, static_cast<double>(untraced.replies)), "ns");
    m.Add("modeled_cycles_per_req",
          Ratio(modeled_end.modeled_cycles - start.modeled_cycles,
                modeled_end.replies - start.replies),
          "cycles");
    m.Add("server_heap_peak_mib",
          static_cast<double>(modeled_end.heap_peak_bytes) / (1 << 20), "MiB");
    m.Add("restart_ms", Median(restart_norm_ms), "ms");
  } else {
    // Layer times are normalized like server_ns_per_req, by the traced
    // slices' mean scale; the client's by the whole window's.
    const Ledger::Totals& t = ledger.traced();
    const double traced_scale = Ratio(traced_norm_s, traced.seconds);
    const double window_scale =
        Ratio(traced_norm_s + untraced_norm_s, traced.seconds + untraced.seconds);
    auto traced_ns = [&](std::int64_t ns) {
      return Ratio(static_cast<double>(ns) * traced_scale, static_cast<double>(traced.replies));
    };
    auto delta = [&](std::uint64_t Counters::*f) {
      return static_cast<double>(end.*f - start.*f);
    };
    m.Add("uknetdev.rx_ns_per_req", traced_ns(t.Incl(Layer::kNetdevRx)), "ns");
    m.Add("uknetdev.tx_ns_per_req", traced_ns(t.Incl(Layer::kNetdevTx)), "ns");
    m.Add("uknetdev.pkts_per_rx_burst",
          Ratio(delta(&Counters::rx_pkts), delta(&Counters::rx_bursts)), "count");
    m.Add("uknetdev.empty_rx_burst_ratio",
          Ratio(delta(&Counters::empty_rx_bursts), delta(&Counters::rx_bursts)), "ratio");
    m.Add("uknetdev.backend_poll_ns_per_req", traced_ns(t.Incl(Layer::kBackendPoll)), "ns");
    m.Add("uknetdev.kicks_per_req", per_req(delta(&Counters::kicks)), "count");
    m.Add("ukplat.wire.frames_per_req", per_req(delta(&Counters::wire_frames)), "count");
    m.Add("ukplat.wire.bytes_per_req", per_req(delta(&Counters::wire_bytes)), "B");
    m.Add("uknet.pure_ack_ratio",
          Ratio(delta(&Counters::tcp_pure_acks), delta(&Counters::tcp_segments)), "ratio");
    m.Add("uknet.segments_per_req", per_req(delta(&Counters::tcp_segments)), "count");
    m.Add("uknet.poll_self_ns_per_req", traced_ns(t.Self(Layer::kNetPoll)), "ns");
    m.Add("uknet.retransmissions", delta(&Counters::tcp_retransmissions), "count");
    m.Add("apps.loop.self_ns_per_req", traced_ns(t.Self(Layer::kLoop)), "ns");
    m.Add("posix.syscalls_per_req", per_req(delta(&Counters::syscalls)), "count");
    m.Add("apps.loop.turns_per_req", per_req(delta(&Counters::loop_turns)), "count");
    m.Add("apps.loop.empty_turn_ratio",
          Ratio(delta(&Counters::empty_turns), delta(&Counters::loop_turns)), "ratio");
    m.Add("apps.persist.turn_end_ns_per_req", traced_ns(t.Incl(Layer::kPersist)), "ns");
    m.Add("apps.persist.aof_writes_per_req", per_req(delta(&Counters::aof_writes)), "count");
    m.Add("apps.persist.fsyncs_per_req", per_req(delta(&Counters::fsyncs)), "count");
    m.Add("apps.persist.cow_preimages_per_req", per_req(delta(&Counters::cow_preimages)),
          "count");
    m.Add("vfscore.self_ns_per_req", traced_ns(t.Self(Layer::kVfs)), "ns");
    m.Add("ukblockdev.submit_ns_per_req", traced_ns(t.Incl(Layer::kBlockdev)), "ns");
    m.Add("ukblockdev.write_bytes_per_user_byte",
          Ratio(delta(&Counters::blk_write_bytes), delta(&Counters::user_write_bytes)),
          "ratio");
    std::map<std::string, std::vector<double>> stages;
    for (const RestartSample& r : restarts) {
      for (const auto& [name, us] : r.stages_us) {
        stages[StageMetric(name)].push_back(us);
      }
    }
    for (const char* name : kStageMetrics) {
      m.Add(name, Median(stages[name]), "us");
    }
    m.Add("ukboot.kill_ms", MedianRestart(restarts, &RestartSample::kill_ms), "ms");
    m.Add("apps.persist.recover_ms", MedianRestart(restarts, &RestartSample::recover_ms),
          "ms");
    m.Add("apps.persist.recovered_keys",
          MedianRestart(restarts, &RestartSample::recovered_keys), "count");
    m.Add("apps.kvstore.pump_ns_per_req", traced_ns(t.Self(Layer::kKvPump)), "ns");
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (std::size_t q = 0; q < busy1.size(); ++q) {
      const double b = static_cast<double>(busy1[q] - busy0[q]);
      busy_max = std::max(busy_max, b);
      busy_sum += b;
    }
    m.Add("apps.kvstore.queue_busy_imbalance",
          busy1.empty() ? 0.0 : Ratio(busy_max, busy_sum / static_cast<double>(busy1.size())),
          "ratio");
    m.Add("apps.kvstore.cross_shard_ops_per_req", per_req(delta(&Counters::cross_shard_ops)),
          "count");
    m.Add("ukalloc.mallocs_per_req", per_req(delta(&Counters::mallocs)), "count");
    m.Add("client.ns_per_req",
          per_req(static_cast<double>(end.client_ns - start.client_ns) * window_scale),
          "ns");
    const double traced_rps = Ratio(static_cast<double>(traced.replies), traced_norm_s);
    const double untraced_rps = Ratio(static_cast<double>(untraced.replies), untraced_norm_s);
    m.Add("trace.throughput_rps_traced", traced_rps, "1/s");
    m.Add("trace.throughput_rps_untraced", untraced_rps, "1/s");
    m.Add("trace.overhead_pct", (Ratio(untraced_rps, traced_rps) - 1.0) * 100.0, "%");
    std::printf("  layer accounting (traced slices): root spans %lld ns = sum of layer "
                "self times %lld ns\n",
                static_cast<long long>(t.root_ns), static_cast<long long>(t.SelfSum()));
  }
  m.Print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(fin.attempted),
              static_cast<unsigned long long>(fin.failed), m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::Parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <resp-pipelined|resp-pingpong|"
                 "durable-restart|udp-kv-4q> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(o);
}
