// apps/persist.h - the durability tier: chunked RDB-style snapshots plus a
// per-turn append-only file, written through vfscore onto the unikernel block
// stack (blockfs over ramdisk/virtio-blk).
//
// Design constraints (see src/apps/PERSIST.md for the full contract):
//
//  * No fork. The servers run to completion on a cooperative scheduler, so a
//    background SAVE cannot clone the address space. Instead the snapshot
//    cursor walks a key list captured at save start, bounded by a per-turn
//    byte budget, while a copy-on-write-lite side log (PreMutate) preserves
//    the pre-image of any key mutated before the cursor reaches it — the
//    snapshot is point-in-time at StartBackgroundSave() without ever pausing
//    the event loop for more than one chunk.
//
//  * Zero-alloc hot path. AppendSet/AppendDel encode RESP into a per-shard
//    turn buffer whose capacity reaches a high-water mark and stays; the file
//    write happens once per event-loop turn (EventLoop::AddTurnEndHook →
//    OnTurnEnd), with the fsync policy knob deciding when the ukblockdev
//    flush barrier is issued (kAlways / kEveryTurn / kOff).
//
//  * Crash-safe by construction, not by rename. The VFS has no atomic rename,
//    so snapshot validity is carried by the file itself: a CRC-32C trailer
//    over the whole body. A crash mid-save leaves a file that fails the CRC
//    and Recover() falls back to the previous generation (two are retained).
//
//  * Replay ordering: newest CRC-valid snapshot first, then every AOF segment
//    with seg >= the snapshot's first_aof_seg, in segment order. The AOF is
//    canonicalized (every mutation is logged as a post-image SET, DEL or
//    FLUSHALL), so replay needs no command semantics beyond those three. A
//    truncated final record — the torn write of a crash — is tolerated: the
//    RESP parser simply never completes it.
#ifndef APPS_PERSIST_H_
#define APPS_PERSIST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ukarch/crc32.h"
#include "vfscore/vfs.h"

namespace apps {

class Persist {
 public:
  enum class FsyncPolicy { kAlways, kEveryTurn, kOff };

  struct Config {
    // Directory holding every persistence file (typically a blockfs mount
    // root; the namespace below it is flat). Must resolve at construction.
    std::string dir = "/persist";
    FsyncPolicy fsync = FsyncPolicy::kEveryTurn;
    // Per-turn byte budget for background-save chunks: one event-loop turn
    // never writes more snapshot bytes than this (a single record larger
    // than the budget is the only exception — forced progress).
    std::size_t snapshot_chunk_bytes = 4096;
    std::uint16_t shards = 1;
  };

  // How the snapshot reads the store it persists. |capture| fills the full
  // key list of one shard (called once per shard at save start); |lookup|
  // returns the live value (nullopt when deleted). Both run on the owning
  // loop — Persist never touches store internals itself.
  struct Source {
    std::function<void(std::uint16_t shard, std::vector<std::string>* keys)> capture;
    std::function<std::optional<std::string_view>(std::uint16_t shard,
                                                  std::string_view key)> lookup;
  };

  // How recovery writes the store back.
  struct Applier {
    std::function<void(std::uint16_t shard, std::string_view key,
                       std::string_view value)> set;
    std::function<void(std::uint16_t shard, std::string_view key)> del;
    std::function<void(std::uint16_t shard)> clear;
  };

  struct RecoverStats {
    bool snapshot_loaded = false;
    std::uint32_t snapshot_gen = 0;
    std::uint32_t snapshots_rejected = 0;  // CRC/format failures skipped over
    std::uint64_t snapshot_keys = 0;
    std::uint64_t aof_segments = 0;
    std::uint64_t aof_commands = 0;
    bool aof_tail_truncated = false;  // torn final record tolerated
  };

  struct Stats {
    std::uint64_t aof_appends = 0;     // commands buffered
    std::uint64_t aof_writes = 0;      // segment file writes (dirty turns)
    std::uint64_t fsyncs = 0;          // barriers issued (any path)
    std::uint64_t snapshots_started = 0;
    std::uint64_t snapshots_completed = 0;
    std::uint64_t snapshots_aborted = 0;
    std::uint64_t snapshot_turns = 0;  // turns that advanced a background save
    std::uint64_t cow_preimages = 0;   // dirty-key side-log copies taken
    std::uint64_t io_errors = 0;
    // Per-turn ledger (the bounded-pause gate): largest byte counts any
    // single OnTurnEnd ever moved.
    std::size_t max_turn_snapshot_bytes = 0;
    std::size_t max_turn_aof_bytes = 0;
  };

  Persist(vfscore::Vfs* vfs, Config config);

  void SetSource(Source source) { source_ = std::move(source); }

  // ---- AOF (hot path) -------------------------------------------------------
  // Buffer one canonicalized mutation into |shard|'s turn buffer. Under
  // FsyncPolicy::kAlways the buffer is written through + barriered
  // immediately; otherwise no file I/O happens until the turn ends.
  void AppendSet(std::uint16_t shard, std::string_view key, std::string_view value);
  void AppendDel(std::uint16_t shard, std::string_view key);
  void AppendClear(std::uint16_t shard);

  // End-of-turn batching point (wire via EventLoop::AddTurnEndHook): writes
  // every dirty shard buffer to its AOF segment, fsyncs per policy, then
  // advances an active background save by one chunk budget.
  void OnTurnEnd();
  // Flushes one shard's buffer only — the per-queue variant for sharded
  // servers where each loop owns exactly one shard.
  void FlushShard(std::uint16_t shard);
  // WAIT-style barrier: write every buffer through and fsync regardless of
  // policy. Returns false on I/O error.
  bool FsyncNow();

  // ---- snapshots ------------------------------------------------------------
  // Synchronous full dump (SAVE): capture + write + commit in one call.
  bool SaveNow();
  // Begins a chunked background save (BGSAVE). False when one is already
  // running or the snapshot file cannot be created.
  bool StartBackgroundSave();
  bool save_active() const { return save_active_; }
  // COW-lite hook: call BEFORE applying any mutation of |key|. Costs one
  // branch when no save is active.
  void PreMutate(std::uint16_t shard, std::string_view key) {
    if (save_active_) {
      PreMutateSlow(shard, key);
    }
  }
  // Drops an in-progress background save (partial file unlinked). FLUSHALL
  // semantics: a store-wide clear invalidates the captured key list.
  void AbortSave();

  // ---- recovery -------------------------------------------------------------
  // Loads the newest valid snapshot, then replays the AOF tail. Also primes
  // the writer state (next segment/generation numbers) — call once, before
  // any Append.
  RecoverStats Recover(const Applier& apply);

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  // Current AOF segment number (tests pin the seal-at-save contract).
  std::uint32_t current_segment() const { return cur_seg_; }

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename V>
  using SvMap = std::unordered_map<std::string, V, SvHash, std::equal_to<>>;
  using SvSet = std::unordered_set<std::string, SvHash, std::equal_to<>>;

  struct ShardState {
    std::string turn_buf;  // capacity persists: the preallocated turn buffer
    std::shared_ptr<vfscore::File> seg_file;  // null until first flush of a segment
  };

  // Background-save state. |pending| tracks keys the cursor has not reached;
  // PreMutate moves a key from pending into |dirty| with its pre-image, and
  // the cursor prefers |dirty| over the live store.
  struct SaveState {
    bool active = false;
    std::uint32_t gen = 0;
    std::uint32_t first_aof_seg = 0;
    std::shared_ptr<vfscore::File> file;
    std::string path;
    ukarch::Crc32 crc;
    std::uint64_t keys_written = 0;
    std::uint16_t cur_shard = 0;
    std::size_t cursor = 0;
    std::vector<std::vector<std::string>> keys;  // per shard, capture order
    std::vector<SvSet> pending;
    std::vector<SvMap<std::string>> dirty;
    std::string record;  // buffered records of the turn, reused
  };

  std::string AofPath(std::uint32_t seg, std::uint16_t shard) const;
  std::string SnapshotPath(std::uint32_t gen) const;

  void PreMutateSlow(std::uint16_t shard, std::string_view key);
  // Writes |shard|'s buffer through to its segment file (opens it first if
  // needed). Caller holds |mu_|.
  void FlushShardLocked(std::uint16_t shard, std::size_t* turn_bytes);
  bool FsyncShardLocked(std::uint16_t shard);
  // Emits up to |budget| snapshot bytes in one file write; finishes + commits
  // when the cursor completes. Caller holds |mu_|. Returns bytes written.
  std::size_t AdvanceSaveLocked(std::size_t budget);
  // Writes the buffered records; on failure aborts the save and returns false.
  bool WriteSaveRecordLocked();
  bool BeginSaveLocked();
  void FinishSaveLocked();
  void AbortSaveLocked();
  // Post-commit retention: keep the two newest generations, drop AOF
  // segments no retained snapshot needs.
  void RetireOldLocked();

  // Reads |path| fully into |out| (recovery-time only). False on any error.
  bool ReadWholeFile(const std::string& path, std::string* out);
  bool LoadSnapshot(std::uint32_t gen, const Applier& apply, RecoverStats* st);
  void ReplaySegment(std::uint32_t seg, std::uint16_t shard,
                     const Applier& apply, RecoverStats* st);

  vfscore::Vfs* vfs_;
  Config config_;
  Source source_;
  std::vector<ShardState> shards_;
  SaveState save_;
  // Mirrors save_.active for the wait-free hot-path check; save_ itself (and
  // all file state) is guarded by mu_ so sharded servers on real threads can
  // share one Persist.
  std::atomic<bool> save_active_{false};
  std::uint32_t cur_seg_ = 0;
  std::uint32_t next_gen_ = 1;
  // first_aof_seg of retained snapshot generations (retention GC input).
  std::unordered_map<std::uint32_t, std::uint32_t> snapshot_first_seg_;
  Stats stats_;
  mutable std::mutex mu_;
};

}  // namespace apps

#endif  // APPS_PERSIST_H_
