// Tests for the persistence tier (apps::Persist): per-turn AOF batching and
// fsync policies, chunked background snapshots with the COW-lite pre-image
// log, crash-recovery ordering (newest valid snapshot + AOF tail), and the
// durability wiring of both servers (ukredis SAVE/BGSAVE/WAITAOF, kvstore
// per-queue shards) — all over blockfs on a ramdisk, the same stack the fleet
// testbed boots.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/kvstore.h"
#include "apps/persist.h"
#include "apps/redis.h"
#include "apps/resp.h"
#include "block_harness.h"
#include "env/testbed.h"
#include "net_harness.h"
#include "posix/api.h"
#include "ukarch/hash.h"
#include "ukblockdev/ramdisk.h"
#include "vfscore/blockfs.h"
#include "vfscore/vfs.h"

namespace {

using apps::Persist;

// A transparent-comparator map standing in for a server store: string_view
// lookups without materializing keys, stable value storage for the Source's
// string_view returns.
using KvMap = std::map<std::string, std::string, std::less<>>;

Persist::Source MapSource(KvMap* m) {
  Persist::Source s;
  s.capture = [m](std::uint16_t, std::vector<std::string>* keys) {
    for (const auto& [k, v] : *m) {
      keys->push_back(k);
    }
  };
  s.lookup = [m](std::uint16_t,
                 std::string_view key) -> std::optional<std::string_view> {
    auto it = m->find(key);
    if (it == m->end()) {
      return std::nullopt;
    }
    return std::string_view(it->second);
  };
  return s;
}

Persist::Applier MapApplier(KvMap* m) {
  Persist::Applier a;
  a.set = [m](std::uint16_t, std::string_view k, std::string_view v) {
    (*m)[std::string(k)] = std::string(v);
  };
  a.del = [m](std::uint16_t, std::string_view k) {
    auto it = m->find(k);
    if (it != m->end()) {
      m->erase(it);
    }
  };
  a.clear = [m](std::uint16_t) { m->clear(); };
  return a;
}

// Unit-test world: one ramdisk whose backing bytes survive "reboots"
// (Remount() rebuilds the filesystem object over the same device, exactly
// what the fleet's kRootfs inittab stage does on respawn).
class PersistTest : public ::testing::Test {
 protected:
  PersistTest() : mem_(8 << 20), disk_(&mem_, /*sectors=*/8192), dev_(&disk_) {
    Remount();
  }

  void Remount() {
    if (fs_ != nullptr) {
      vfs_.Unmount("/persist");
    }
    fs_ = std::make_unique<vfscore::BlockFs>(&dev_, &mem_);
    ASSERT_TRUE(ukarch::Ok(fs_->EnsureFormatted()));
    ASSERT_TRUE(ukarch::Ok(vfs_.Mount("/persist", fs_.get())));
  }

  bool Exists(const std::string& path) {
    vfscore::NodeStat st;
    return ukarch::Ok(vfs_.Stat(path, &st));
  }

  std::unique_ptr<Persist> MakePersist(Persist::Config cfg, KvMap* store) {
    cfg.dir = "/persist";
    auto p = std::make_unique<Persist>(&vfs_, cfg);
    p->SetSource(MapSource(store));
    return p;
  }

  // Every BlockFs file write ends with exactly one write to the inode table
  // (blocks 2..3, sectors 16..31), so these count File::Write calls.
  std::size_t InodeTableWrites() const {
    return dev_.Count(ukblockdev::Request::Op::kWrite, 16, 32);
  }

  ukplat::MemRegion mem_;
  ukblockdev::RamDisk disk_;
  blockharness::RecordingBlockDev dev_;
  vfscore::Vfs vfs_;
  std::unique_ptr<vfscore::BlockFs> fs_;
};

// ---- AOF batching + fsync policies ------------------------------------------------

TEST_F(PersistTest, AofIsBatchedPerTurnAndReplayedOnBoot) {
  KvMap store;
  auto p = MakePersist({}, &store);  // default: kEveryTurn
  KvMap empty;
  p->Recover(MapApplier(&empty));

  p->AppendSet(0, "alpha", "1");
  p->AppendSet(0, "beta", "2");
  p->AppendSet(0, "gone", "3");
  p->AppendDel(0, "gone");
  // Buffered only: nothing reaches the filesystem until the turn ends.
  EXPECT_FALSE(Exists("/persist/aof-0-s0"));
  EXPECT_EQ(p->stats().aof_writes, 0u);

  const std::uint64_t flushes_before = disk_.flushes();
  p->OnTurnEnd();
  EXPECT_TRUE(Exists("/persist/aof-0-s0"));
  EXPECT_EQ(p->stats().aof_appends, 4u);
  EXPECT_EQ(p->stats().aof_writes, 1u);  // one write for the whole turn
  EXPECT_EQ(p->stats().fsyncs, 1u);
  EXPECT_EQ(disk_.flushes(), flushes_before + 1);
  // Idle turns cost nothing: no write, no barrier.
  p->OnTurnEnd();
  EXPECT_EQ(p->stats().aof_writes, 1u);
  EXPECT_EQ(p->stats().fsyncs, 1u);

  // Boot: a fresh Persist over the same directory replays the log.
  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_FALSE(rs.snapshot_loaded);
  EXPECT_EQ(rs.aof_segments, 1u);
  EXPECT_EQ(rs.aof_commands, 4u);
  EXPECT_FALSE(rs.aof_tail_truncated);
  EXPECT_EQ(recovered, (KvMap{{"alpha", "1"}, {"beta", "2"}}));
}

TEST_F(PersistTest, FsyncPolicyKnobControlsTheBarrier) {
  KvMap store;
  // kAlways: every append writes through and barriers immediately.
  {
    Persist::Config cfg;
    cfg.fsync = Persist::FsyncPolicy::kAlways;
    auto p = MakePersist(cfg, &store);
    const std::uint64_t before = disk_.flushes();
    p->AppendSet(0, "a", "1");
    EXPECT_EQ(p->stats().aof_writes, 1u);
    EXPECT_EQ(disk_.flushes(), before + 1);
    p->AppendSet(0, "b", "2");
    EXPECT_EQ(p->stats().aof_writes, 2u);
    EXPECT_EQ(disk_.flushes(), before + 2);
  }
  // kOff: turn-end writes the file but never barriers; FsyncNow (the
  // WAIT-style barrier) still forces one through regardless of policy.
  {
    Persist::Config cfg;
    cfg.fsync = Persist::FsyncPolicy::kOff;
    auto p = MakePersist(cfg, &store);
    const std::uint64_t before = disk_.flushes();
    p->AppendSet(0, "c", "3");
    p->OnTurnEnd();
    EXPECT_EQ(p->stats().aof_writes, 1u);
    EXPECT_EQ(p->stats().fsyncs, 0u);
    EXPECT_EQ(disk_.flushes(), before);
    EXPECT_TRUE(p->FsyncNow());
    EXPECT_EQ(p->stats().fsyncs, 1u);
    EXPECT_EQ(disk_.flushes(), before + 1);
  }
}

TEST_F(PersistTest, TruncatedAofTailIsTolerated) {
  KvMap store;
  {
    auto p = MakePersist({}, &store);
    p->AppendSet(0, "whole", "v");
    p->AppendSet(0, "keep", "w");
    p->OnTurnEnd();
  }
  // The torn write of a hard kill: a record that stops mid-bulk. The RESP
  // parser never completes it, so replay applies everything before it and
  // flags the tail.
  {
    std::shared_ptr<vfscore::File> f;
    ASSERT_TRUE(ukarch::Ok(vfs_.Open("/persist/aof-0-s0",
                                     vfscore::kWrite | vfscore::kAppend, &f)));
    std::string_view torn = "*3\r\n$3\r\nSET\r\n$4\r\ntorn\r\n$8\r\nab";
    f->Write(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(torn.data()), torn.size()));
  }
  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_EQ(rs.aof_commands, 2u);
  EXPECT_TRUE(rs.aof_tail_truncated);
  EXPECT_EQ(recovered, (KvMap{{"whole", "v"}, {"keep", "w"}}));
}

// ---- snapshots --------------------------------------------------------------------

TEST_F(PersistTest, SaveNowWritesACrcValidSnapshot) {
  KvMap store{{"a", "1"}, {"b", "two"}, {"c", std::string(300, 'x')}};
  {
    auto p = MakePersist({}, &store);
    KvMap empty;
    p->Recover(MapApplier(&empty));
    ASSERT_TRUE(p->SaveNow());
    EXPECT_EQ(p->stats().snapshots_completed, 1u);
    EXPECT_TRUE(Exists("/persist/dump-1.rdb"));
  }
  Remount();  // reboot: brand-new filesystem object over the same disk
  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(rs.snapshot_gen, 1u);
  EXPECT_EQ(rs.snapshot_keys, 3u);
  EXPECT_EQ(rs.aof_commands, 0u);
  EXPECT_EQ(recovered, store);
}

TEST_F(PersistTest, AofTailReplaysOverTheSnapshot) {
  KvMap store{{"a", "old"}, {"b", "kept"}};
  auto p = MakePersist({}, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));
  ASSERT_TRUE(p->SaveNow());
  // Post-snapshot mutations land in the sealed-forward AOF tail.
  store["a"] = "new";
  p->AppendSet(0, "a", "new");
  store["c"] = "late";
  p->AppendSet(0, "c", "late");
  store.erase("b");
  p->AppendDel(0, "b");
  p->OnTurnEnd();

  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(rs.aof_commands, 3u);
  EXPECT_EQ(recovered, (KvMap{{"a", "new"}, {"c", "late"}}));
}

TEST_F(PersistTest, CorruptSnapshotFallsBackToOlderGeneration) {
  KvMap store{{"k", "gen1"}};
  auto p = MakePersist({}, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));
  ASSERT_TRUE(p->SaveNow());
  store["k"] = "gen2";
  ASSERT_TRUE(p->SaveNow());
  ASSERT_TRUE(Exists("/persist/dump-2.rdb"));

  // Flip one body byte of the newest generation: the CRC trailer no longer
  // matches, so recovery must reject it and fall back to generation 1.
  {
    std::shared_ptr<vfscore::File> f;
    ASSERT_TRUE(ukarch::Ok(
        vfs_.Open("/persist/dump-2.rdb", vfscore::kRead | vfscore::kWrite, &f)));
    std::byte b{};
    ASSERT_EQ(f->ReadAt(30, std::span<std::byte>(&b, 1)), 1);
    b ^= std::byte{0x5a};
    ASSERT_EQ(f->WriteAt(30, std::span<const std::byte>(&b, 1)), 1);
  }

  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(rs.snapshot_gen, 1u);
  EXPECT_EQ(rs.snapshots_rejected, 1u);
  EXPECT_EQ(recovered, (KvMap{{"k", "gen1"}}));
  // The rejected file was unlinked so it can never shadow gen 1 again.
  EXPECT_FALSE(Exists("/persist/dump-2.rdb"));
}

TEST_F(PersistTest, BackgroundSaveBoundsBytesPerTurn) {
  KvMap store;
  for (int i = 0; i < 300; ++i) {
    char key[8];
    std::snprintf(key, sizeof key, "k%03d", i);
    store[key] = std::string(48, 'v');
  }
  Persist::Config cfg;
  cfg.snapshot_chunk_bytes = 512;
  auto p = MakePersist(cfg, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));

  ASSERT_TRUE(p->StartBackgroundSave());
  EXPECT_TRUE(p->save_active());
  int turns = 0;
  while (p->save_active() && turns < 10'000) {
    p->OnTurnEnd();
    ++turns;
  }
  ASSERT_FALSE(p->save_active());
  EXPECT_EQ(p->stats().snapshots_completed, 1u);
  // The bounded-pause ledger: the save took many turns, and no single turn
  // moved more than the budget plus one record (the forced-progress bound;
  // record = 10-byte header + 4-byte key + 48-byte value).
  EXPECT_GT(p->stats().snapshot_turns, 1u);
  EXPECT_LE(p->stats().max_turn_snapshot_bytes, 512u + (10 + 4 + 48));

  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(rs.snapshot_keys, 300u);
  EXPECT_EQ(recovered, store);
}

// A background-save turn hands the filesystem its whole budget in one write,
// and SAVE (no budget) still writes chunk by chunk.
TEST_F(PersistTest, BackgroundSaveTurnIsOneFileWrite) {
  KvMap store;
  for (int i = 0; i < 200; ++i) {
    store["key" + std::to_string(i)] = std::string(1024, static_cast<char>('a' + i % 26));
  }
  Persist::Config cfg;
  cfg.snapshot_chunk_bytes = 64 * 1024;
  auto p = MakePersist(cfg, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));

  ASSERT_TRUE(p->StartBackgroundSave());
  int turns = 0;
  while (p->save_active() && turns < 100) {
    dev_.log.clear();
    p->OnTurnEnd();
    ++turns;
    if (p->save_active()) {
      EXPECT_EQ(InodeTableWrites(), 1u) << "turn " << turns;
    }
  }
  ASSERT_FALSE(p->save_active());
  EXPECT_EQ(turns, 4);  // ~207 KiB of records at 64 KiB per turn
  EXPECT_LE(p->stats().max_turn_snapshot_bytes, 64u * 1024 + (10 + 6 + 1024));

  cfg.snapshot_chunk_bytes = 4096;
  auto q = MakePersist(cfg, &store);
  KvMap scratch;
  q->Recover(MapApplier(&scratch));
  dev_.log.clear();
  ASSERT_TRUE(q->SaveNow());
  EXPECT_GE(InodeTableWrites(), 200u * 1024 / (4096 + 1040));

  KvMap recovered;
  auto r = MakePersist({}, &recovered);
  Persist::RecoverStats rs = r->Recover(MapApplier(&recovered));
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(recovered, store);
}

TEST_F(PersistTest, CowPreimageKeepsTheSnapshotPointInTime) {
  KvMap store;
  for (int i = 0; i < 200; ++i) {
    char key[8];
    std::snprintf(key, sizeof key, "k%03d", i);
    store[key] = "old";
  }
  Persist::Config cfg;
  cfg.snapshot_chunk_bytes = 256;
  auto p = MakePersist(cfg, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));
  ASSERT_TRUE(p->StartBackgroundSave());

  // Mutate ahead of the cursor, exactly as a server would: PreMutate first
  // (pre-image into the side log), then the store write, then the AOF record.
  p->PreMutate(0, "k150");
  store["k150"] = "new";
  p->AppendSet(0, "k150", "new");
  p->PreMutate(0, "k100");
  store.erase("k100");
  p->AppendDel(0, "k100");

  int turns = 0;
  while (p->save_active() && turns < 10'000) {
    p->OnTurnEnd();
    ++turns;
  }
  ASSERT_FALSE(p->save_active());
  EXPECT_EQ(p->stats().cow_preimages, 2u);

  // Full recovery: snapshot pre-images are superseded by the AOF tail.
  KvMap full;
  auto p2 = MakePersist({}, &full);
  p2->Recover(MapApplier(&full));
  EXPECT_EQ(full["k150"], "new");
  EXPECT_FALSE(full.contains("k100"));
  EXPECT_EQ(full["k000"], "old");

  // Snapshot-only recovery (tail removed): the file must hold the state as
  // of StartBackgroundSave() — both mutated keys at their pre-images.
  vfs_.Unlink("/persist/aof-1-s0");
  KvMap snap_only;
  auto p3 = MakePersist({}, &snap_only);
  Persist::RecoverStats rs = p3->Recover(MapApplier(&snap_only));
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_EQ(rs.snapshot_keys, 200u);
  EXPECT_EQ(snap_only["k150"], "old");
  EXPECT_EQ(snap_only["k100"], "old");
}

TEST_F(PersistTest, AbortedSaveUnlinksThePartialFile) {
  KvMap store;
  for (int i = 0; i < 100; ++i) {
    store["key" + std::to_string(i)] = std::string(64, 'a');
  }
  Persist::Config cfg;
  cfg.snapshot_chunk_bytes = 128;
  auto p = MakePersist(cfg, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));

  ASSERT_TRUE(p->StartBackgroundSave());
  p->OnTurnEnd();  // a little progress: the partial file exists on disk
  ASSERT_TRUE(p->save_active());
  ASSERT_TRUE(Exists("/persist/dump-1.rdb"));
  // FLUSHALL semantics: the captured key list is invalid, drop the save.
  p->AbortSave();
  EXPECT_FALSE(p->save_active());
  EXPECT_EQ(p->stats().snapshots_aborted, 1u);
  EXPECT_FALSE(Exists("/persist/dump-1.rdb"));

  store.clear();
  p->AppendClear(0);
  store["solo"] = "v";
  p->AppendSet(0, "solo", "v");
  p->OnTurnEnd();

  // Seed the recovery target with stale state: only an applied FLUSHALL can
  // remove it, which is how we know the clear was replayed.
  KvMap recovered{{"stale", "1"}};
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_FALSE(rs.snapshot_loaded);
  EXPECT_EQ(recovered, (KvMap{{"solo", "v"}}));
}

TEST_F(PersistTest, RetentionKeepsTwoGenerationsAndDropsDeadSegments) {
  KvMap store;
  auto p = MakePersist({}, &store);
  KvMap empty;
  p->Recover(MapApplier(&empty));

  store["a"] = "1";
  p->AppendSet(0, "a", "1");
  p->OnTurnEnd();  // aof-0-s0
  ASSERT_TRUE(p->SaveNow());  // gen 1 covers segment 0
  store["b"] = "2";
  p->AppendSet(0, "b", "2");
  p->OnTurnEnd();  // aof-1-s0
  ASSERT_TRUE(p->SaveNow());  // gen 2 covers segment 1
  store["c"] = "3";
  p->AppendSet(0, "c", "3");
  p->OnTurnEnd();  // aof-2-s0
  ASSERT_TRUE(p->SaveNow());  // gen 3: retention point

  // Two newest generations retained; every segment covered by BOTH gone.
  EXPECT_FALSE(Exists("/persist/dump-1.rdb"));
  EXPECT_TRUE(Exists("/persist/dump-2.rdb"));
  EXPECT_TRUE(Exists("/persist/dump-3.rdb"));
  EXPECT_FALSE(Exists("/persist/aof-0-s0"));
  EXPECT_FALSE(Exists("/persist/aof-1-s0"));
  EXPECT_TRUE(Exists("/persist/aof-2-s0"));

  Remount();
  KvMap recovered;
  auto p2 = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p2->Recover(MapApplier(&recovered));
  EXPECT_EQ(rs.snapshot_gen, 3u);
  EXPECT_EQ(recovered, (KvMap{{"a", "1"}, {"b", "2"}, {"c", "3"}}));
}

TEST_F(PersistTest, RecoveryPrimesAFreshSegment) {
  KvMap store;
  {
    auto p = MakePersist({}, &store);
    KvMap empty;
    p->Recover(MapApplier(&empty));
    EXPECT_EQ(p->current_segment(), 0u);
    store["k1"] = "v1";
    p->AppendSet(0, "k1", "v1");
    p->OnTurnEnd();
  }
  Remount();
  {
    // Appends after a recovery never touch the possibly-torn old tail: they
    // open segment max+1.
    KvMap recovered;
    auto p = MakePersist({}, &recovered);
    p->Recover(MapApplier(&recovered));
    EXPECT_EQ(recovered, (KvMap{{"k1", "v1"}}));
    EXPECT_EQ(p->current_segment(), 1u);
    p->AppendSet(0, "k2", "v2");
    p->OnTurnEnd();
    EXPECT_TRUE(Exists("/persist/aof-0-s0"));
    EXPECT_TRUE(Exists("/persist/aof-1-s0"));
  }
  Remount();
  KvMap recovered;
  auto p = MakePersist({}, &recovered);
  Persist::RecoverStats rs = p->Recover(MapApplier(&recovered));
  EXPECT_EQ(rs.aof_segments, 2u);
  EXPECT_EQ(p->current_segment(), 2u);
  EXPECT_EQ(recovered, (KvMap{{"k1", "v1"}, {"k2", "v2"}}));
}

// ---- ukredis end-to-end -----------------------------------------------------------

// Redis over the real stack with a blockfs-backed /persist on the server
// host: the durability commands travel as RESP, and a second server instance
// recovering from the same directory is the in-process stand-in for a
// reboot (the fleet test does it across a real Instance Shutdown/Boot).
class PersistRedisTest : public netharness::TwoHostTest {
 protected:
  PersistRedisTest()
      : disk_(&b_.mem, /*sectors=*/8192),
        api_(&clock_, &vfs_, b_.stack.get(), posix::DispatchMode::kDirectCall) {
    fs_ = std::make_unique<vfscore::BlockFs>(&disk_, &b_.mem);
    EXPECT_TRUE(ukarch::Ok(fs_->EnsureFormatted()));
    EXPECT_TRUE(ukarch::Ok(vfs_.Mount("/persist", fs_.get())));
    a_.netif->AddArpEntry(netharness::MakeIp(10, 0, 0, 2), b_.nic->mac());
    b_.netif->AddArpEntry(netharness::MakeIp(10, 0, 0, 1), a_.nic->mac());
  }

  void Pump(apps::RedisServer& server, int rounds = 300) {
    for (int i = 0; i < rounds; ++i) {
      a_.stack->Poll();
      b_.stack->Poll();
      server.PumpOnce();
    }
  }

  // Sends |cmds| and pumps until the reply stream stops growing.
  std::string Exchange(std::shared_ptr<uknet::TcpSocket>& sock,
                       apps::RedisServer& server, const std::string& cmds) {
    sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(cmds.data()),
                         cmds.size()));
    std::string reply;
    for (int i = 0; i < 600; ++i) {
      a_.stack->Poll();
      b_.stack->Poll();
      server.PumpOnce();
      std::uint8_t buf[1024];
      std::int64_t n;
      while ((n = sock->Recv(buf)) > 0) {
        reply.append(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
      }
    }
    return reply;
  }

  ukblockdev::RamDisk disk_;
  vfscore::Vfs vfs_;
  posix::PosixApi api_;
  std::unique_ptr<vfscore::BlockFs> fs_;
};

TEST_F(PersistRedisTest, SaveBgsaveWaitaofAndRecoveryIntoASecondServer) {
  Persist::Config pcfg;
  pcfg.dir = "/persist";
  pcfg.snapshot_chunk_bytes = 128;  // BGSAVE must span several turns
  auto persist = std::make_unique<Persist>(&vfs_, pcfg);
  auto server = std::make_unique<apps::RedisServer>(&api_, b_.alloc.get(), 6379);
  ASSERT_TRUE(server->Start());
  server->AttachPersist(persist.get());
  Persist::RecoverStats boot = server->RecoverFromPersist();
  EXPECT_FALSE(boot.snapshot_loaded);

  auto sock = a_.stack->TcpConnect(netharness::MakeIp(10, 0, 0, 2), 6379);
  Pump(*server);
  ASSERT_TRUE(sock->connected());

  using apps::RespCommand;
  EXPECT_EQ(Exchange(sock, *server,
                     RespCommand({"SET", "a", "1"}) + RespCommand({"SET", "b", "2"})),
            "+OK\r\n+OK\r\n");
  // SAVE: synchronous snapshot, acknowledged only after the CRC commit.
  EXPECT_EQ(Exchange(sock, *server, RespCommand({"SAVE"})), "+OK\r\n");
  EXPECT_EQ(persist->stats().snapshots_completed, 1u);

  EXPECT_EQ(Exchange(sock, *server, RespCommand({"SET", "c", "3"})), "+OK\r\n");
  // BGSAVE: replies immediately, then the save advances one budgeted chunk
  // per event-loop turn until done.
  EXPECT_EQ(Exchange(sock, *server, RespCommand({"BGSAVE"})),
            "+Background saving started\r\n");
  for (int i = 0; i < 2000 && persist->save_active(); ++i) {
    server->PumpOnce();
  }
  ASSERT_FALSE(persist->save_active());
  EXPECT_EQ(persist->stats().snapshots_completed, 2u);
  // A second BGSAVE while one runs is refused — prove the error path exists
  // by racing one against itself.
  ASSERT_TRUE(persist->StartBackgroundSave());
  EXPECT_EQ(Exchange(sock, *server, RespCommand({"BGSAVE"})),
            "-ERR background save already in progress\r\n");
  for (int i = 0; i < 2000 && persist->save_active(); ++i) {
    server->PumpOnce();
  }

  // Tail after the snapshots, then the WAIT-style barrier.
  EXPECT_EQ(Exchange(sock, *server,
                     RespCommand({"SET", "d", "4"}) + RespCommand({"DEL", "a"})),
            "+OK\r\n:1\r\n");
  const std::uint64_t flushes_before = disk_.flushes();
  EXPECT_EQ(Exchange(sock, *server, RespCommand({"WAITAOF"})), ":1\r\n");
  EXPECT_GT(disk_.flushes(), flushes_before);

  // "Reboot": tear down the server and its persist (fleet order), then boot
  // a fresh pair over the same directory.
  server.reset();
  persist.reset();
  auto persist2 = std::make_unique<Persist>(&vfs_, pcfg);
  auto server2 = std::make_unique<apps::RedisServer>(&api_, b_.alloc.get(), 6380);
  ASSERT_TRUE(server2->Start());
  server2->AttachPersist(persist2.get());
  Persist::RecoverStats rs = server2->RecoverFromPersist();
  EXPECT_TRUE(rs.snapshot_loaded);
  EXPECT_GE(rs.aof_commands, 2u);  // SET d + DEL a ride the tail
  auto& store = server2->store();
  EXPECT_FALSE(store.Get("a").has_value());
  EXPECT_EQ(store.Get("b"), "2");
  EXPECT_EQ(store.Get("c"), "3");
  EXPECT_EQ(store.Get("d"), "4");
}

TEST_F(PersistRedisTest, GetSetHotPathStaysZeroAllocWithAofOn) {
  Persist::Config pcfg;
  pcfg.dir = "/persist";
  pcfg.fsync = Persist::FsyncPolicy::kEveryTurn;
  Persist persist(&vfs_, pcfg);
  apps::RedisServer server(&api_, b_.alloc.get(), 6379);
  ASSERT_TRUE(server.Start());
  server.AttachPersist(&persist);
  server.RecoverFromPersist();

  auto sock = a_.stack->TcpConnect(netharness::MakeIp(10, 0, 0, 2), 6379);
  Pump(server);
  ASSERT_TRUE(sock->connected());

  const std::string value(64, 'v');
  std::string sets;
  std::string gets;
  for (int i = 0; i < 16; ++i) {
    sets += apps::RespCommand({"SET", "hotkey", value});
    gets += apps::RespCommand({"GET", "hotkey"});
  }
  // Warmup: connection buffers, parser scratch, the persist turn buffer and
  // the AOF segment file all reach their high-water marks.
  for (int round = 0; round < 4; ++round) {
    Exchange(sock, server, sets);
    Exchange(sock, server, gets);
  }

  netharness::ZeroAllocGuard guard({}, b_.alloc.get());
  std::string reply = Exchange(sock, server, gets);
  EXPECT_EQ(apps::ConsumeReplies(&reply), 16u);
  // GET with the AOF enabled allocates nothing: views over the parser
  // buffer, reply encoded in place, no log record for a read.
  guard.ExpectHeapSteady("redis GET hot path with AOF everyturn", 0);

  guard.Rebase();
  reply = Exchange(sock, server, sets);
  EXPECT_EQ(apps::ConsumeReplies(&reply), 16u);
  // SET overwrites one slot per command: the value store mallocs and frees
  // in balance (zero byte drift), and the AOF append itself adds nothing.
  EXPECT_EQ(guard.heap_bytes(), 0);
  EXPECT_LE(guard.heap_mallocs(), 16u);
  EXPECT_GE(persist.stats().aof_appends, 16u * 5);  // warmup + measured phase
}

// Replies leave after the turn's fsync (Redis's beforeSleep order): the event
// loop holds the turn's frames until its turn-end hooks have run, so the
// +OK of a SET reaches the client only once the barrier that makes it
// durable has been issued. The client port's wire signal records the disk's
// barrier count at the moment each server frame lands.
TEST_F(PersistRedisTest, ReplyLeavesOnlyAfterTheTurnsFsync) {
  Persist::Config pcfg;
  pcfg.dir = "/persist";
  pcfg.fsync = Persist::FsyncPolicy::kEveryTurn;
  Persist persist(&vfs_, pcfg);
  apps::RedisServer server(&api_, b_.alloc.get(), 6379);
  ASSERT_TRUE(server.Start());
  server.AttachPersist(&persist);
  server.RecoverFromPersist();
  auto sock = a_.stack->TcpConnect(netharness::MakeIp(10, 0, 0, 2), 6379);
  Pump(server);
  ASSERT_TRUE(sock->connected());
  for (int i = 0; i < 4; ++i) {  // warm-up: ARP, handshake ACK, AOF segment
    ASSERT_EQ(Exchange(sock, server, apps::RespCommand({"SET", "k", "warm"})),
              "+OK\r\n");
  }

  const std::string set = apps::RespCommand({"SET", "k", "durable"});
  ASSERT_EQ(sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(set.data()),
                                 set.size())),
            static_cast<std::int64_t>(set.size()));
  const std::uint64_t barriers_before = disk_.flushes();
  std::vector<std::uint64_t> barriers_at_frame;
  wire_.SetSignalFn(0, [&] { barriers_at_frame.push_back(disk_.flushes()); });
  for (int i = 0; i < 8 && barriers_at_frame.empty(); ++i) {
    server.PumpOnce();
  }
  wire_.SetSignalFn(0, nullptr);
  ASSERT_FALSE(barriers_at_frame.empty());
  for (std::uint64_t barriers : barriers_at_frame) {
    EXPECT_GT(barriers, barriers_before);
  }
  std::string reply;
  for (int i = 0; i < 8 && reply.empty(); ++i) {
    a_.stack->Poll();
    std::uint8_t buf[64];
    const std::int64_t n = sock->Recv(buf);
    if (n > 0) {
      reply.assign(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
    }
  }
  EXPECT_EQ(reply, "+OK\r\n");
}

// ---- kvstore end-to-end -----------------------------------------------------------

// The sharded specialized server: two RSS queues, one persist shard per
// queue, full restart (NIC, filesystem object and server rebuilt; only the
// disk backing survives) with per-shard replay.
TEST(KvPersistTest, TwoQueueNetdevServerSurvivesRestart) {
  ukplat::Clock clock;
  ukplat::MemRegion mem(48 << 20);
  std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                        mem.At(heap_gpa, 24 << 20), 24 << 20);
  ukplat::Wire wire(&clock);
  uknetdev::VirtioNet::Config nic_cfg;
  nic_cfg.backend = uknetdev::VirtioBackend::kVhostUser;
  nic_cfg.wire_side = 0;
  auto nic = std::make_unique<uknetdev::VirtioNet>(&mem, &clock, &wire, nic_cfg);

  ukblockdev::RamDisk disk(&mem, /*sectors=*/8192);
  vfscore::Vfs vfs;
  auto fs = std::make_unique<vfscore::BlockFs>(&disk, &mem);
  ASSERT_TRUE(ukarch::Ok(fs->EnsureFormatted()));
  ASSERT_TRUE(ukarch::Ok(vfs.Mount("/persist", fs.get())));

  Persist::Config pcfg;
  pcfg.dir = "/persist";
  pcfg.shards = 2;  // one persist shard per queue
  auto persist = std::make_unique<Persist>(&vfs, pcfg);
  auto server = std::make_unique<apps::KvServer>(
      nic.get(), &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
      apps::KvMode::kUkNetdev, /*queues=*/2);
  ASSERT_TRUE(server->Start());
  ASSERT_EQ(server->queue_count(), 2);
  server->AttachPersist(persist.get());
  Persist::RecoverStats boot = server->RecoverFromPersist();
  EXPECT_FALSE(boot.snapshot_loaded);
  EXPECT_EQ(boot.aof_commands, 0u);

  env::SimHost client(&clock, &wire, 1, uknet::MakeIp(10, 0, 0, 2),
                      ukalloc::Backend::kTlsf,
                      uknetdev::VirtioBackend::kVhostUser);
  client.netif->AddArpEntry(uknet::MakeIp(10, 0, 0, 1), nic->mac());

  // One client flow per server queue (shared symmetric flow hash), each
  // writing a key its own queue's shard owns.
  std::shared_ptr<uknet::UdpSocket> flow[2];
  while (flow[0] == nullptr || flow[1] == nullptr) {
    auto c = client.stack->UdpOpen();
    std::uint16_t q = static_cast<std::uint16_t>(
        ukarch::FlowHash4(uknet::MakeIp(10, 0, 0, 2), c->local_port(),
                          uknet::MakeIp(10, 0, 0, 1), 7777) %
        2);
    if (flow[q] == nullptr) {
      flow[q] = std::move(c);
    }
  }
  auto key_for = [](std::uint16_t q) {
    std::uint16_t k = 0;
    while (apps::KvServer::ShardForKey(k, 2) != q) {
      ++k;
    }
    return k;
  };
  for (std::uint16_t q = 0; q < 2; ++q) {
    flow[q]->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777,
                    apps::EncodeKvRequest(
                        {true, key_for(q), q == 0 ? "zero" : "one"}));
  }
  for (int i = 0; i < 200; ++i) {
    client.stack->Poll();
    server->PumpQueue(0);  // each queue pump flushes its own persist shard
    server->PumpQueue(1);
  }
  EXPECT_EQ(server->requests(), 2u);
  EXPECT_GE(persist->stats().aof_writes, 2u);
  // Drain the SET acks so post-restart reads see only the GET replies.
  for (std::uint16_t q = 0; q < 2; ++q) {
    auto ack = flow[q]->RecvFrom();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->payload[0], 'K');
  }

  // Restart in fleet teardown/bring-up order: only |disk| carries state
  // across; NIC, filesystem object, persist and server are all rebuilt.
  server.reset();
  persist.reset();
  vfs.Unmount("/persist");
  fs.reset();
  nic.reset();
  wire.ResetPort(0);
  nic = std::make_unique<uknetdev::VirtioNet>(&mem, &clock, &wire, nic_cfg);
  fs = std::make_unique<vfscore::BlockFs>(&disk, &mem);
  ASSERT_TRUE(ukarch::Ok(fs->EnsureFormatted()));  // finds, does not reformat
  ASSERT_TRUE(ukarch::Ok(vfs.Mount("/persist", fs.get())));
  persist = std::make_unique<Persist>(&vfs, pcfg);
  server = std::make_unique<apps::KvServer>(
      nic.get(), &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
      apps::KvMode::kUkNetdev, /*queues=*/2);
  ASSERT_TRUE(server->Start());
  server->AttachPersist(persist.get());
  Persist::RecoverStats rs = server->RecoverFromPersist();
  EXPECT_EQ(rs.aof_commands, 2u);
  EXPECT_EQ(rs.aof_segments, 2u);  // one segment file per shard
  EXPECT_EQ(server->shard_size(0), 1u);
  EXPECT_EQ(server->shard_size(1), 1u);

  // The reborn server answers GETs for pre-restart data over the network.
  client.netif->AddArpEntry(uknet::MakeIp(10, 0, 0, 1), nic->mac());
  for (std::uint16_t q = 0; q < 2; ++q) {
    flow[q]->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777,
                    apps::EncodeKvRequest({false, key_for(q), ""}));
  }
  for (int i = 0; i < 200; ++i) {
    client.stack->Poll();
    server->PumpQueue(0);
    server->PumpQueue(1);
  }
  auto r0 = flow[0]->RecvFrom();
  auto r1 = flow[1]->RecvFrom();
  ASSERT_TRUE(r0 && r1);
  EXPECT_EQ(std::string(r0->payload.begin(), r0->payload.end()), "zero");
  EXPECT_EQ(std::string(r1->payload.begin(), r1->payload.end()), "one");
}

}  // namespace
