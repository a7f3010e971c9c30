// apps/redis.h - ukredis: the in-memory key-value server of Figs 12 and 18,
// plus a redis-benchmark work-alike client.
//
// The server is single-threaded and run-to-completion (the configuration the
// paper selects: cooperative scheduling "fits well with Redis's single
// threaded approach"). Value storage draws from the unikernel's own allocator
// so the allocator comparison in Fig 18 measures real allocator work.
#ifndef APPS_REDIS_H_
#define APPS_REDIS_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/event_loop.h"
#include "apps/load_client.h"
#include "apps/persist.h"
#include "apps/resp.h"
#include "apps/stream_server.h"
#include "posix/api.h"
#include "uknet/stack.h"

namespace apps {

// String values held in allocator-backed buffers. Keys are looked up
// transparently (heterogeneous hash/equality), so GET/EXISTS/DEL on the
// parser's string_view argv never materialize a std::string.
class ValueStore {
 public:
  explicit ValueStore(ukalloc::Allocator* alloc) : alloc_(alloc) {}
  ~ValueStore() { Clear(); }

  bool Set(std::string_view key, std::string_view value);
  std::optional<std::string_view> Get(std::string_view key) const;
  bool Del(std::string_view key);
  std::int64_t Incr(std::string_view key, bool* ok);
  std::size_t size() const { return map_.size(); }
  void Clear();
  // Copies every key (snapshot capture — the point-in-time key list a
  // background save walks).
  void CaptureKeys(std::vector<std::string>* keys) const;

 private:
  struct Slot {
    char* data = nullptr;
    std::size_t len = 0;
  };
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  ukalloc::Allocator* alloc_;
  std::unordered_map<std::string, Slot, SvHash, std::equal_to<>> map_;
};

// Single-threaded server multiplexing every connection through the shared
// apps::EventLoop: the listener's kEvtAcceptable and each connection's
// kEvtReadable/kEvtWritable drive one dispatch loop — under a scheduler the
// whole server sleeps in one EpollWait between bursts.
//
// The connection machinery (accept drain, recv loop, interest-tracked flush,
// close-after-drain) lives in the shared apps::StreamServer scaffold; this
// class is only the RESP protocol: a per-connection parser plus ExecuteInto
// over its ValueStore.
class RedisServer {
 public:
  RedisServer(posix::PosixApi* api, ukalloc::Allocator* alloc, std::uint16_t port);

  // Starts listening and registers with the event loop. False on failure.
  bool Start();
  // One non-blocking event-loop turn. Returns commands run.
  std::size_t PumpOnce();
  // One blocking turn: sleeps in EpollWait up to |timeout_cycles| (see
  // EventLoop::kNoTimeout) until a connection, data, or teardown event.
  std::size_t PumpWait(std::uint64_t timeout_cycles = EventLoop::kNoTimeout);

  std::uint64_t commands_processed() const { return commands_; }
  // Commands arriving on probe-marked connections (balancer health checks):
  // kept out of commands_processed() so load assertions can exclude them.
  std::uint64_t probe_commands() const { return probe_commands_; }
  std::size_t connections() const { return server_.connections(); }
  ValueStore& store() { return store_; }
  EventLoop& loop() { return loop_; }
  StreamServer& stream() { return server_; }

  // Wires the durability tier in: the store becomes the persist Source, every
  // mutation is AOF-logged (and COW-guarded during background saves), and the
  // loop gets a turn-end hook that batches the file I/O. Enables the
  // SAVE / BGSAVE / WAITAOF commands. Call before traffic.
  void AttachPersist(Persist* persist);
  // Replays snapshot + AOF into the (empty) store — the kLate boot step.
  Persist::RecoverStats RecoverFromPersist();

 private:
  // Appends the reply straight into |out| (the connection's pending buffer):
  // constant replies are precomputed byte strings, values are encoded in
  // place — no per-command reply allocation.
  void ExecuteInto(std::span<const std::string_view> argv, std::string& out);
  StreamServer::Handler MakeHandler();

  std::uint16_t port_;
  EventLoop loop_;
  StreamServer server_;
  ValueStore store_;
  Persist* persist_ = nullptr;  // optional durability tier (unowned)
  std::uint64_t commands_ = 0;
  std::uint64_t probe_commands_ = 0;
};

// redis-benchmark work-alike: N connections, pipelined GET/SET mix.
class RedisBenchClient : public PipelinedClient {
 public:
  struct Config {
    int connections = 30;
    int pipeline = 16;
    bool use_set = false;       // false: GET workload, true: SET workload
    int keyspace = 1000;
    int value_bytes = 64;
  };

  RedisBenchClient(uknet::NetStack* stack, uknet::Ip4Addr server, std::uint16_t port,
                   Config config);

  std::uint64_t replies() const { return completed(); }

 private:
  void AppendRequest(std::string& batch) override;
  std::size_t ConsumeComplete(std::string* rx) override { return ConsumeReplies(rx); }

  Config config_;
  std::uint64_t seq_ = 0;
  // Reused across requests so encoding allocates nothing.
  std::string key_;
  std::string value_;
};

}  // namespace apps

#endif  // APPS_REDIS_H_
