#include "apps/persist.h"

#include <algorithm>
#include <cstring>

#include "apps/resp.h"

namespace apps {
namespace {

constexpr char kSnapMagic[8] = {'U', 'K', 'R', 'D', 'B', '0', '1', '\0'};
// magic + gen + first_aof_seg + shards + pad + key_count
constexpr std::size_t kSnapHeaderBytes = 8 + 4 + 4 + 2 + 2 + 8;
constexpr std::size_t kSnapFooterBytes = 4;  // CRC-32C over everything before it
// u16 shard + u32 klen + u32 vlen
constexpr std::size_t kSnapRecordHeader = 2 + 4 + 4;

void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t GetU16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[0]) |
                                    (static_cast<std::uint8_t>(p[1]) << 8));
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

bool WriteAll(vfscore::File* file, std::string_view bytes) {
  const std::byte* p = reinterpret_cast<const std::byte*>(bytes.data());
  std::size_t left = bytes.size();
  while (left > 0) {
    std::int64_t n = file->Write(std::span<const std::byte>(p, left));
    if (n <= 0) {
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

// Parses the decimal |text| as a non-negative integer; false on any non-digit.
bool ParseNumber(std::string_view text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// File-name codecs for the flat persistence directory.
// Snapshot: dump-<gen>.rdb   AOF: aof-<seg>-s<shard>
bool ParseSnapshotName(std::string_view name, std::uint32_t* gen) {
  if (!name.starts_with("dump-") || !name.ends_with(".rdb")) {
    return false;
  }
  std::uint64_t v = 0;
  if (!ParseNumber(name.substr(5, name.size() - 9), &v)) {
    return false;
  }
  *gen = static_cast<std::uint32_t>(v);
  return true;
}

bool ParseAofName(std::string_view name, std::uint32_t* seg, std::uint16_t* shard) {
  if (!name.starts_with("aof-")) {
    return false;
  }
  std::size_t s = name.rfind("-s");
  if (s == std::string_view::npos || s < 4) {
    return false;
  }
  std::uint64_t seg_v = 0;
  std::uint64_t shard_v = 0;
  if (!ParseNumber(name.substr(4, s - 4), &seg_v) ||
      !ParseNumber(name.substr(s + 2), &shard_v)) {
    return false;
  }
  *seg = static_cast<std::uint32_t>(seg_v);
  *shard = static_cast<std::uint16_t>(shard_v);
  return true;
}

}  // namespace

Persist::Persist(vfscore::Vfs* vfs, Config config)
    : vfs_(vfs), config_(std::move(config)) {
  if (config_.shards == 0) {
    config_.shards = 1;
  }
  shards_.resize(config_.shards);
  for (ShardState& s : shards_) {
    s.turn_buf.reserve(1024);  // warm start; grows to its high-water mark
  }
}

std::string Persist::AofPath(std::uint32_t seg, std::uint16_t shard) const {
  return config_.dir + "/aof-" + std::to_string(seg) + "-s" + std::to_string(shard);
}

std::string Persist::SnapshotPath(std::uint32_t gen) const {
  return config_.dir + "/dump-" + std::to_string(gen) + ".rdb";
}

// ---- AOF ---------------------------------------------------------------------

void Persist::AppendSet(std::uint16_t shard, std::string_view key,
                        std::string_view value) {
  if (shard >= shards_.size()) {
    return;
  }
  RespCommandInto(shards_[shard].turn_buf, {"SET", key, value});
  ++stats_.aof_appends;
  if (config_.fsync == FsyncPolicy::kAlways) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    FlushShardLocked(shard, &bytes);
    FsyncShardLocked(shard);
    stats_.max_turn_aof_bytes = std::max(stats_.max_turn_aof_bytes, bytes);
  }
}

void Persist::AppendDel(std::uint16_t shard, std::string_view key) {
  if (shard >= shards_.size()) {
    return;
  }
  RespCommandInto(shards_[shard].turn_buf, {"DEL", key});
  ++stats_.aof_appends;
  if (config_.fsync == FsyncPolicy::kAlways) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    FlushShardLocked(shard, &bytes);
    FsyncShardLocked(shard);
    stats_.max_turn_aof_bytes = std::max(stats_.max_turn_aof_bytes, bytes);
  }
}

void Persist::AppendClear(std::uint16_t shard) {
  if (shard >= shards_.size()) {
    return;
  }
  RespCommandInto(shards_[shard].turn_buf, {"FLUSHALL"});
  ++stats_.aof_appends;
  if (config_.fsync == FsyncPolicy::kAlways) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    FlushShardLocked(shard, &bytes);
    FsyncShardLocked(shard);
    stats_.max_turn_aof_bytes = std::max(stats_.max_turn_aof_bytes, bytes);
  }
}

void Persist::FlushShardLocked(std::uint16_t shard, std::size_t* turn_bytes) {
  ShardState& s = shards_[shard];
  if (s.turn_buf.empty()) {
    return;
  }
  if (s.seg_file == nullptr) {
    auto st = vfs_->Open(AofPath(cur_seg_, shard),
                         vfscore::kWrite | vfscore::kCreate | vfscore::kAppend,
                         &s.seg_file);
    if (!ukarch::Ok(st)) {
      ++stats_.io_errors;
      s.turn_buf.clear();
      return;
    }
  }
  if (!WriteAll(s.seg_file.get(), s.turn_buf)) {
    ++stats_.io_errors;
  } else {
    ++stats_.aof_writes;
    if (turn_bytes != nullptr) {
      *turn_bytes += s.turn_buf.size();
    }
  }
  s.turn_buf.clear();  // capacity retained: steady state reuses the buffer
}

bool Persist::FsyncShardLocked(std::uint16_t shard) {
  ShardState& s = shards_[shard];
  if (s.seg_file == nullptr) {
    return true;
  }
  ++stats_.fsyncs;
  if (!ukarch::Ok(s.seg_file->Fsync())) {
    ++stats_.io_errors;
    return false;
  }
  return true;
}

void Persist::OnTurnEnd() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t aof_bytes = 0;
  for (std::uint16_t s = 0; s < shards_.size(); ++s) {
    const bool dirty = !shards_[s].turn_buf.empty();
    FlushShardLocked(s, &aof_bytes);
    if (dirty && config_.fsync == FsyncPolicy::kEveryTurn) {
      FsyncShardLocked(s);
    }
  }
  stats_.max_turn_aof_bytes = std::max(stats_.max_turn_aof_bytes, aof_bytes);
  if (save_.active) {
    std::size_t snap_bytes = AdvanceSaveLocked(config_.snapshot_chunk_bytes);
    if (snap_bytes > 0) {
      ++stats_.snapshot_turns;
      stats_.max_turn_snapshot_bytes =
          std::max(stats_.max_turn_snapshot_bytes, snap_bytes);
    }
  }
}

void Persist::FlushShard(std::uint16_t shard) {
  if (shard >= shards_.size()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const bool dirty = !shards_[shard].turn_buf.empty();
  std::size_t bytes = 0;
  FlushShardLocked(shard, &bytes);
  if (dirty && config_.fsync == FsyncPolicy::kEveryTurn) {
    FsyncShardLocked(shard);
  }
  stats_.max_turn_aof_bytes = std::max(stats_.max_turn_aof_bytes, bytes);
}

bool Persist::FsyncNow() {
  std::lock_guard<std::mutex> lock(mu_);
  bool ok = true;
  for (std::uint16_t s = 0; s < shards_.size(); ++s) {
    FlushShardLocked(s, nullptr);
    if (!FsyncShardLocked(s)) {
      ok = false;
    }
  }
  return ok;
}

// ---- snapshots ---------------------------------------------------------------

bool Persist::BeginSaveLocked() {
  if (save_.active || !source_.capture || !source_.lookup) {
    return false;
  }
  // Seal the AOF: everything appended so far describes pre-snapshot state and
  // belongs to the old segments; the snapshot then covers those segments and
  // replay only needs seg >= first_aof_seg.
  for (std::uint16_t s = 0; s < shards_.size(); ++s) {
    FlushShardLocked(s, nullptr);
    shards_[s].seg_file.reset();
  }
  ++cur_seg_;

  save_.gen = next_gen_++;
  save_.first_aof_seg = cur_seg_;
  save_.path = SnapshotPath(save_.gen);
  auto st = vfs_->Open(save_.path,
                       vfscore::kWrite | vfscore::kCreate | vfscore::kTrunc,
                       &save_.file);
  if (!ukarch::Ok(st)) {
    ++stats_.io_errors;
    return false;
  }

  // Point-in-time capture: the key lists are copied now; values stream later,
  // protected by the PreMutate pre-image side log.
  const std::uint16_t n = static_cast<std::uint16_t>(shards_.size());
  save_.keys.assign(n, {});
  save_.pending.assign(n, {});
  save_.dirty.assign(n, {});
  std::uint64_t key_count = 0;
  for (std::uint16_t s = 0; s < n; ++s) {
    source_.capture(s, &save_.keys[s]);
    for (const std::string& k : save_.keys[s]) {
      save_.pending[s].insert(k);
    }
    key_count += save_.keys[s].size();
  }

  save_.crc.Reset();
  save_.record.clear();
  save_.record.append(kSnapMagic, sizeof(kSnapMagic));
  PutU32(save_.record, save_.gen);
  PutU32(save_.record, save_.first_aof_seg);
  PutU16(save_.record, n);
  PutU16(save_.record, 0);
  PutU64(save_.record, key_count);
  save_.crc.Update(save_.record.data(), save_.record.size());
  if (!WriteAll(save_.file.get(), save_.record)) {
    ++stats_.io_errors;
    save_.file.reset();
    vfs_->Unlink(save_.path);
    return false;
  }

  save_.keys_written = 0;
  save_.cur_shard = 0;
  save_.cursor = 0;
  save_.active = true;
  save_active_.store(true, std::memory_order_release);
  ++stats_.snapshots_started;
  return true;
}

std::size_t Persist::AdvanceSaveLocked(std::size_t budget) {
  // The turn's records collect in |record| and reach the file in one write:
  // at the end of the turn, with the trailer when the save finishes, or
  // whenever the buffer holds a chunk (so SaveNow's unbounded budget never
  // buffers the whole image).
  std::size_t written = 0;
  save_.record.clear();
  while (save_.active) {
    if (save_.cur_shard >= save_.keys.size()) {
      FinishSaveLocked();
      return written;
    }
    std::vector<std::string>& keys = save_.keys[save_.cur_shard];
    if (save_.cursor >= keys.size()) {
      ++save_.cur_shard;
      save_.cursor = 0;
      continue;
    }
    // One record per iteration; stop once the budget is consumed but always
    // make progress (a record larger than the whole budget still goes out —
    // the only way a turn can exceed snapshot_chunk_bytes).
    if (written >= budget) {
      break;
    }
    if (save_.record.size() >= config_.snapshot_chunk_bytes &&
        !WriteSaveRecordLocked()) {
      return written;
    }
    const std::uint16_t shard = save_.cur_shard;
    const std::string& key = keys[save_.cursor++];
    std::string_view value;
    bool have = false;
    auto dirty_it = save_.dirty[shard].find(key);
    if (dirty_it != save_.dirty[shard].end()) {
      value = dirty_it->second;  // pre-image preserved by PreMutate
      have = true;
    } else {
      auto pend_it = save_.pending[shard].find(key);
      if (pend_it != save_.pending[shard].end()) {
        save_.pending[shard].erase(pend_it);
        auto live = source_.lookup(shard, key);
        if (live.has_value()) {
          value = *live;
          have = true;
        }
      }
    }
    if (!have) {
      continue;
    }
    const std::size_t start = save_.record.size();
    PutU16(save_.record, shard);
    PutU32(save_.record, static_cast<std::uint32_t>(key.size()));
    PutU32(save_.record, static_cast<std::uint32_t>(value.size()));
    save_.record.append(key);
    save_.record.append(value);
    save_.crc.Update(save_.record.data() + start, save_.record.size() - start);
    if (dirty_it != save_.dirty[shard].end()) {
      save_.dirty[shard].erase(dirty_it);
    }
    written += save_.record.size() - start;
    ++save_.keys_written;
  }
  if (save_.active) {
    WriteSaveRecordLocked();
  }
  return written;
}

bool Persist::WriteSaveRecordLocked() {
  if (!WriteAll(save_.file.get(), save_.record)) {
    ++stats_.io_errors;
    AbortSaveLocked();
    return false;
  }
  save_.record.clear();
  return true;
}

void Persist::FinishSaveLocked() {
  // Commit: the CRC trailer is what makes the file valid — a crash any time
  // before this write leaves a rejectable file and recovery falls back. It
  // goes out in one write with the records still buffered.
  PutU32(save_.record, save_.crc.value());
  bool ok = WriteAll(save_.file.get(), save_.record);
  if (ok) {
    ++stats_.fsyncs;
    ok = ukarch::Ok(save_.file->Fsync());  // snapshots are always barriered
  }
  save_.file.reset();
  if (!ok) {
    ++stats_.io_errors;
    vfs_->Unlink(save_.path);
    ++stats_.snapshots_aborted;
  } else {
    snapshot_first_seg_[save_.gen] = save_.first_aof_seg;
    ++stats_.snapshots_completed;
    RetireOldLocked();
  }
  save_.keys.clear();
  save_.pending.clear();
  save_.dirty.clear();
  save_.active = false;
  save_active_.store(false, std::memory_order_release);
}

void Persist::AbortSaveLocked() {
  if (!save_.active) {
    return;
  }
  save_.file.reset();
  vfs_->Unlink(save_.path);
  save_.keys.clear();
  save_.pending.clear();
  save_.dirty.clear();
  save_.active = false;
  save_active_.store(false, std::memory_order_release);
  ++stats_.snapshots_aborted;
}

void Persist::AbortSave() {
  std::lock_guard<std::mutex> lock(mu_);
  AbortSaveLocked();
}

bool Persist::StartBackgroundSave() {
  std::lock_guard<std::mutex> lock(mu_);
  return BeginSaveLocked();
}

bool Persist::SaveNow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!BeginSaveLocked()) {
    return false;
  }
  const std::uint32_t gen = save_.gen;
  while (save_.active) {
    AdvanceSaveLocked(static_cast<std::size_t>(-1));
  }
  return snapshot_first_seg_.contains(gen);
}

void Persist::PreMutateSlow(std::uint16_t shard, std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!save_.active || shard >= save_.pending.size()) {
    return;
  }
  auto it = save_.pending[shard].find(key);
  if (it == save_.pending[shard].end()) {
    return;  // cursor already passed it, or created after capture
  }
  auto value = source_.lookup(shard, key);
  if (value.has_value()) {
    save_.dirty[shard].emplace(*it, std::string(*value));
    ++stats_.cow_preimages;
  }
  save_.pending[shard].erase(it);
}

void Persist::RetireOldLocked() {
  std::vector<vfscore::DirEntry> entries;
  if (!ukarch::Ok(vfs_->ReadDir(config_.dir, &entries))) {
    return;
  }
  std::vector<std::uint32_t> gens;
  for (const vfscore::DirEntry& e : entries) {
    std::uint32_t gen = 0;
    if (ParseSnapshotName(e.name, &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end(), std::greater<>());
  // Keep the two newest generations (belt and braces: the newest plus one
  // fallback); unlink the rest and forget their AOF coverage entries.
  constexpr std::size_t kKeepGens = 2;
  for (std::size_t i = kKeepGens; i < gens.size(); ++i) {
    vfs_->Unlink(SnapshotPath(gens[i]));
    snapshot_first_seg_.erase(gens[i]);
  }
  // AOF GC: a segment is dead once every retained snapshot covers it. If any
  // retained generation's coverage is unknown, skip the GC entirely.
  std::uint32_t min_first_seg = cur_seg_;
  for (std::size_t i = 0; i < std::min(kKeepGens, gens.size()); ++i) {
    auto it = snapshot_first_seg_.find(gens[i]);
    if (it == snapshot_first_seg_.end()) {
      return;
    }
    min_first_seg = std::min(min_first_seg, it->second);
  }
  if (gens.empty()) {
    return;
  }
  for (const vfscore::DirEntry& e : entries) {
    std::uint32_t seg = 0;
    std::uint16_t shard = 0;
    if (ParseAofName(e.name, &seg, &shard) && seg < min_first_seg) {
      vfs_->Unlink(config_.dir + "/" + std::string(e.name));
    }
  }
}

// ---- recovery ----------------------------------------------------------------

bool Persist::ReadWholeFile(const std::string& path, std::string* out) {
  vfscore::NodeStat st;
  if (!ukarch::Ok(vfs_->Stat(path, &st))) {
    return false;
  }
  std::shared_ptr<vfscore::File> file;
  if (!ukarch::Ok(vfs_->Open(path, vfscore::kRead, &file))) {
    return false;
  }
  out->resize(st.size);
  std::size_t got = 0;
  while (got < out->size()) {
    std::int64_t n = file->Read(std::span<std::byte>(
        reinterpret_cast<std::byte*>(out->data()) + got, out->size() - got));
    if (n <= 0) {
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool Persist::LoadSnapshot(std::uint32_t gen, const Applier& apply,
                           RecoverStats* st) {
  std::string body;
  if (!ReadWholeFile(SnapshotPath(gen), &body)) {
    return false;
  }
  if (body.size() < kSnapHeaderBytes + kSnapFooterBytes) {
    return false;
  }
  const std::size_t crc_pos = body.size() - kSnapFooterBytes;
  const std::uint32_t stored_crc = GetU32(body.data() + crc_pos);
  if (ukarch::Crc32Of(std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(body.data()), crc_pos)) !=
      stored_crc) {
    return false;
  }
  if (std::memcmp(body.data(), kSnapMagic, sizeof(kSnapMagic)) != 0) {
    return false;
  }
  const std::uint32_t file_gen = GetU32(body.data() + 8);
  const std::uint32_t first_seg = GetU32(body.data() + 12);
  const std::uint64_t key_count = GetU64(body.data() + 20);
  if (file_gen != gen) {
    return false;
  }
  // Parse + apply. The CRC already vouched for every byte, so applying while
  // parsing cannot half-apply a corrupt file.
  std::size_t pos = kSnapHeaderBytes;
  std::uint64_t applied = 0;
  while (pos < crc_pos) {
    if (crc_pos - pos < kSnapRecordHeader) {
      return false;
    }
    const std::uint16_t shard = GetU16(body.data() + pos);
    const std::uint32_t klen = GetU32(body.data() + pos + 2);
    const std::uint32_t vlen = GetU32(body.data() + pos + 6);
    pos += kSnapRecordHeader;
    if (crc_pos - pos < static_cast<std::size_t>(klen) + vlen) {
      return false;
    }
    std::string_view key(body.data() + pos, klen);
    std::string_view value(body.data() + pos + klen, vlen);
    pos += klen + static_cast<std::size_t>(vlen);
    if (apply.set) {
      apply.set(shard, key, value);
    }
    ++applied;
  }
  if (applied != key_count) {
    return false;
  }
  st->snapshot_loaded = true;
  st->snapshot_gen = gen;
  st->snapshot_keys = applied;
  snapshot_first_seg_[gen] = first_seg;
  return true;
}

void Persist::ReplaySegment(std::uint32_t seg, std::uint16_t shard,
                            const Applier& apply, RecoverStats* st) {
  std::string body;
  if (!ReadWholeFile(AofPath(seg, shard), &body)) {
    return;
  }
  RespCommandParser parser;
  parser.Feed(body);
  while (const auto* argv = parser.NextView()) {
    const auto& a = *argv;
    if (a.empty()) {
      continue;
    }
    if (a[0] == "SET" && a.size() == 3) {
      if (apply.set) {
        apply.set(shard, a[1], a[2]);
      }
    } else if (a[0] == "DEL" && a.size() == 2) {
      if (apply.del) {
        apply.del(shard, a[1]);
      }
    } else if (a[0] == "FLUSHALL" && a.size() == 1) {
      if (apply.clear) {
        apply.clear(shard);
      }
    } else {
      continue;  // unknown canonical command: skip, count nothing
    }
    ++st->aof_commands;
  }
  // The torn write of a crash: an incomplete (or garbled) final record stays
  // buffered or trips the parser — both are the tolerated truncated tail.
  if (parser.error() || parser.pending() > 0) {
    st->aof_tail_truncated = true;
  }
  ++st->aof_segments;
}

Persist::RecoverStats Persist::Recover(const Applier& apply) {
  std::lock_guard<std::mutex> lock(mu_);
  RecoverStats st;
  std::vector<vfscore::DirEntry> entries;
  vfs_->ReadDir(config_.dir, &entries);

  std::vector<std::uint32_t> gens;
  std::uint32_t max_seg = 0;
  bool any_seg = false;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> segs;
  for (const vfscore::DirEntry& e : entries) {
    std::uint32_t gen = 0;
    std::uint32_t seg = 0;
    std::uint16_t shard = 0;
    if (ParseSnapshotName(e.name, &gen)) {
      gens.push_back(gen);
    } else if (ParseAofName(e.name, &seg, &shard)) {
      segs.emplace_back(seg, shard);
      max_seg = std::max(max_seg, seg);
      any_seg = true;
    }
  }

  // Newest CRC-valid snapshot wins; rejected files are unlinked so they can
  // never shadow a good generation again.
  std::sort(gens.begin(), gens.end(), std::greater<>());
  for (std::uint32_t gen : gens) {
    if (LoadSnapshot(gen, apply, &st)) {
      break;
    }
    ++st.snapshots_rejected;
    vfs_->Unlink(SnapshotPath(gen));
  }

  // Replay the AOF tail: every segment the loaded snapshot does not cover,
  // in segment order (shard interleave within a segment is free — the key
  // space is shard-partitioned).
  const std::uint32_t first_seg =
      st.snapshot_loaded ? snapshot_first_seg_[st.snapshot_gen] : 0;
  std::sort(segs.begin(), segs.end());
  for (const auto& [seg, shard] : segs) {
    if (seg >= first_seg) {
      ReplaySegment(seg, shard, apply, &st);
    }
  }

  // Prime the writer: appends always open a FRESH segment (never append after
  // a possibly-torn tail), and the next snapshot generation is newest + 1.
  cur_seg_ = any_seg ? max_seg + 1 : first_seg;
  next_gen_ = gens.empty() ? 1 : gens.front() + 1;
  RetireOldLocked();
  return st;
}

}  // namespace apps
