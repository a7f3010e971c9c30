// Tests for the applications: RESP codec, ukredis end-to-end over the
// testbed, ukhttp, the SQL engine + B+tree, and the UDP kvstore paths.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/btree.h"
#include "apps/http.h"
#include "apps/kvstore.h"
#include "apps/redis.h"
#include "apps/resp.h"
#include "apps/sql.h"
#include "apps/stream_server.h"
#include "env/testbed.h"
#include "net_harness.h"
#include "ukarch/hash.h"
#include "ukarch/random.h"

namespace {

using namespace apps;

// ---- RESP -------------------------------------------------------------------------

TEST(Resp, ParsesCommand) {
  RespCommandParser p;
  p.Feed("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n");
  auto cmd = p.Next();
  ASSERT_TRUE(cmd.has_value());
  ASSERT_EQ(cmd->size(), 3u);
  EXPECT_EQ((*cmd)[0], "SET");
  EXPECT_EQ((*cmd)[2], "bar");
  EXPECT_FALSE(p.Next().has_value());
}

TEST(Resp, HandlesPartialFeed) {
  RespCommandParser p;
  std::string full = "*2\r\n$3\r\nGET\r\n$5\r\nkey:1\r\n";
  for (std::size_t i = 0; i < full.size() - 1; ++i) {
    p.Feed(full.substr(i, 1));
    EXPECT_FALSE(p.Next().has_value()) << i;
  }
  p.Feed(full.substr(full.size() - 1));
  auto cmd = p.Next();
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ((*cmd)[1], "key:1");
}

TEST(Resp, PipelinedCommands) {
  RespCommandParser p;
  p.Feed(RespCommand({"PING"}) + RespCommand({"GET", "a"}) + RespCommand({"PING"}));
  int n = 0;
  while (p.Next().has_value()) {
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST(Resp, MalformedSetsError) {
  RespCommandParser p;
  p.Feed("GARBAGE\r\n");
  EXPECT_FALSE(p.Next().has_value());
  EXPECT_TRUE(p.error());
}

TEST(Resp, ConsumeRepliesCountsAllTypes) {
  std::string buf = RespSimpleString("OK") + RespInteger(7) + RespNil() +
                    RespBulk("hello") + RespError("nope");
  EXPECT_EQ(ConsumeReplies(&buf), 5u);
  EXPECT_TRUE(buf.empty());
  // Partial bulk stays buffered.
  buf = "$10\r\nabc";
  EXPECT_EQ(ConsumeReplies(&buf), 0u);
  EXPECT_FALSE(buf.empty());
}

// ---- redis end-to-end ----------------------------------------------------------------

class RedisTest : public ::testing::Test {
 protected:
  RedisTest()
      : bed_(env::Profile::UnikraftKvm()),
        server_(&bed_.api(), bed_.server().alloc.get(), 6379) {
    EXPECT_TRUE(server_.Start());
  }

  void Pump(int rounds = 300) {
    for (int i = 0; i < rounds; ++i) {
      bed_.Poll();
      server_.PumpOnce();
    }
  }

  env::TestBed bed_;
  RedisServer server_;
};

TEST_F(RedisTest, SetGetThroughRealStack) {
  auto sock = bed_.client().stack->TcpConnect(env::TestBed::kServerIp, 6379);
  Pump();
  ASSERT_TRUE(sock->connected());
  std::string cmds = RespCommand({"SET", "k", "v"}) + RespCommand({"GET", "k"}) +
                     RespCommand({"GET", "missing"});
  sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(cmds.data()), cmds.size()));
  Pump();
  std::uint8_t buf[512];
  std::int64_t n = sock->Recv(buf);
  ASSERT_GT(n, 0);
  std::string reply(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
  EXPECT_EQ(reply, "+OK\r\n$1\r\nv\r\n$-1\r\n");
  EXPECT_EQ(server_.commands_processed(), 3u);
}

TEST_F(RedisTest, IncrDelExists) {
  auto sock = bed_.client().stack->TcpConnect(env::TestBed::kServerIp, 6379);
  Pump();
  std::string cmds = RespCommand({"INCR", "n"}) + RespCommand({"INCR", "n"}) +
                     RespCommand({"EXISTS", "n"}) + RespCommand({"DEL", "n"}) +
                     RespCommand({"EXISTS", "n"});
  sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(cmds.data()), cmds.size()));
  Pump();
  std::uint8_t buf[512];
  std::int64_t n = sock->Recv(buf);
  std::string reply(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
  EXPECT_EQ(reply, ":1\r\n:2\r\n:1\r\n:1\r\n:0\r\n");
}

TEST_F(RedisTest, BenchClientMeasuresThroughput) {
  RedisBenchClient::Config cfg;
  cfg.connections = 4;
  cfg.pipeline = 8;
  cfg.use_set = true;
  RedisBenchClient bench(bed_.client().stack.get(), env::TestBed::kServerIp, 6379, cfg);
  ASSERT_TRUE(bench.ConnectAll([&] {
    bed_.Poll();
    server_.PumpOnce();
  }));
  for (int i = 0; i < 400; ++i) {
    bench.PumpOnce();
    bed_.Poll();
    server_.PumpOnce();
  }
  EXPECT_GT(bench.replies(), 500u);
  // Replies trail commands by at most the in-flight pipeline depth.
  EXPECT_LE(bench.replies(), server_.commands_processed());
  EXPECT_LE(server_.commands_processed() - bench.replies(),
            static_cast<std::uint64_t>(cfg.connections * cfg.pipeline));
}

TEST_F(RedisTest, ValueStoreUsesInstanceAllocator) {
  std::uint64_t used_before = bed_.server().alloc->stats().bytes_in_use;
  auto sock = bed_.client().stack->TcpConnect(env::TestBed::kServerIp, 6379);
  Pump();
  std::string big(4096, 'z');
  std::string cmd = RespCommand({"SET", "big", big});
  sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(cmd.data()), cmd.size()));
  Pump();
  EXPECT_GE(bed_.server().alloc->stats().bytes_in_use, used_before + 4096);
}

// ---- http ------------------------------------------------------------------------------

class HttpTest : public ::testing::Test {
 protected:
  HttpTest() : bed_(env::Profile::UnikraftKvm()) {
    // 612-byte page, like the paper's wrk setup.
    std::shared_ptr<vfscore::File> f;
    EXPECT_TRUE(Ok(bed_.vfs().Open("/index.html", vfscore::kWrite | vfscore::kCreate,
                                   &f)));
    std::string body(612, 'u');
    f->Write(std::as_bytes(std::span(body.data(), body.size())));
  }

  env::TestBed bed_;
};

TEST_F(HttpTest, ParsesRequests) {
  std::string buf = "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  auto r1 = ParseHttpRequest(&buf);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->path, "/a");
  auto r2 = ParseHttpRequest(&buf);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->path, "/b");
  EXPECT_FALSE(ParseHttpRequest(&buf).has_value());
}

TEST_F(HttpTest, ServesStaticFile) {
  HttpServer server(&bed_.api(), 80, &bed_.vfs());
  ASSERT_TRUE(server.Start());
  WrkClient::Config cfg;
  cfg.connections = 2;
  cfg.pipeline = 2;
  WrkClient wrk(bed_.client().stack.get(), env::TestBed::kServerIp, 80, cfg);
  ASSERT_TRUE(wrk.ConnectAll([&] {
    bed_.Poll();
    server.PumpOnce();
  }));
  for (int i = 0; i < 300; ++i) {
    wrk.PumpOnce();
    bed_.Poll();
    server.PumpOnce();
  }
  EXPECT_GT(wrk.responses(), 20u);
  EXPECT_EQ(wrk.responses(), server.requests_served());
}

TEST_F(HttpTest, Returns404ForMissing) {
  HttpServer server(&bed_.api(), 80, &bed_.vfs());
  ASSERT_TRUE(server.Start());
  auto sock = bed_.client().stack->TcpConnect(env::TestBed::kServerIp, 80);
  for (int i = 0; i < 300; ++i) {
    bed_.Poll();
    server.PumpOnce();
  }
  std::string req = "GET /ghost HTTP/1.1\r\n\r\n";
  sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(req.data()), req.size()));
  for (int i = 0; i < 300; ++i) {
    bed_.Poll();
    server.PumpOnce();
  }
  std::uint8_t buf[512];
  std::int64_t n = sock->Recv(buf);
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n))
                .find("404"),
            std::string::npos);
}

TEST_F(HttpTest, ShfsModeServesFromVolume) {
  shfs::Shfs::Builder builder;
  std::string body(612, 's');
  builder.Add("index.html", std::vector<std::uint8_t>(body.begin(), body.end()));
  auto volume = builder.Build();
  HttpServer server(&bed_.api(), 80, volume.get());
  ASSERT_TRUE(server.Start());
  WrkClient::Config cfg;
  cfg.connections = 1;
  cfg.pipeline = 1;
  WrkClient wrk(bed_.client().stack.get(), env::TestBed::kServerIp, 80, cfg);
  ASSERT_TRUE(wrk.ConnectAll([&] {
    bed_.Poll();
    server.PumpOnce();
  }));
  for (int i = 0; i < 200; ++i) {
    wrk.PumpOnce();
    bed_.Poll();
    server.PumpOnce();
  }
  EXPECT_GT(wrk.responses(), 5u);
}

// ---- StreamServer -----------------------------------------------------------------

// A handler may close any connection of any instance from inside on_data:
// its own (torn down when the dispatch unwinds, so the Conn& it holds stays
// valid), a sibling, and one of a second instance on the same loop. Each
// on_close runs exactly once, also when it closes its own connection again.
TEST(StreamServerTest, HandlerClosesOwnSiblingAndForeignConnections) {
  env::TestBed bed(env::Profile::UnikraftKvm());
  EventLoop loop(&bed.api());
  std::vector<int> a_fds;
  std::vector<int> b_fds;
  std::map<int, int> a_closes;
  std::map<int, int> b_closes;
  std::string seen_after_close;
  StreamServer* a = nullptr;
  StreamServer b(&bed.api(), &loop,
                 StreamServer::Handler{
                     .on_open = [&](StreamServer::Conn& c) { b_fds.push_back(c.fd); },
                     .on_data = nullptr,
                     .on_close = [&](StreamServer::Conn& c) { ++b_closes[c.fd]; },
                 });
  StreamServer::Handler ha;
  ha.on_open = [&](StreamServer::Conn& c) { a_fds.push_back(c.fd); };
  ha.on_data = [&](StreamServer::Conn& c, std::string_view data) {
    c.in.append(data);
    if (c.in != "close-all") {
      return;
    }
    a->Close(c.fd);
    for (int fd : a_fds) {
      a->Close(fd);  // the sibling; the own fd again is a no-op
    }
    b.Close(b_fds.at(0));
    seen_after_close = c.in;  // still this handler's connection state
  };
  ha.on_close = [&](StreamServer::Conn& c) {
    ++a_closes[c.fd];
    a->Close(c.fd);  // re-entrant close from its own on_close: a no-op
  };
  StreamServer server_a(&bed.api(), &loop, ha);
  a = &server_a;
  ASSERT_TRUE(server_a.Listen(9000));
  ASSERT_TRUE(b.Listen(9001));

  auto pump = [&] {
    for (int i = 0; i < 300; ++i) {
      bed.Poll();
      loop.PumpOnce();
    }
  };
  auto x = bed.client().stack->TcpConnect(env::TestBed::kServerIp, 9000);
  auto y = bed.client().stack->TcpConnect(env::TestBed::kServerIp, 9000);
  auto z = bed.client().stack->TcpConnect(env::TestBed::kServerIp, 9001);
  pump();
  ASSERT_TRUE(x->connected() && y->connected() && z->connected());
  ASSERT_EQ(server_a.connections(), 2u);
  ASSERT_EQ(b.connections(), 1u);

  const std::string cmd = "close-all";
  x->Send(std::span(reinterpret_cast<const std::uint8_t*>(cmd.data()), cmd.size()));
  pump();

  EXPECT_EQ(seen_after_close, cmd);
  EXPECT_EQ(server_a.connections(), 0u);
  EXPECT_EQ(b.connections(), 0u);
  ASSERT_EQ(a_fds.size(), 2u);
  EXPECT_EQ(a_closes, (std::map<int, int>{{a_fds[0], 1}, {a_fds[1], 1}}));
  EXPECT_EQ(b_closes, (std::map<int, int>{{b_fds.at(0), 1}}));
  EXPECT_TRUE(x->peer_closed());
  EXPECT_TRUE(y->peer_closed());
  EXPECT_TRUE(z->peer_closed());
}

// ---- B+tree -----------------------------------------------------------------------------

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : mem_(new std::byte[kHeap]) {
    alloc_ = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem_.get(), kHeap);
  }
  static constexpr std::size_t kHeap = 32 << 20;
  std::unique_ptr<std::byte[]> mem_;
  std::unique_ptr<ukalloc::Allocator> alloc_;
};

TEST_F(BTreeTest, InsertFindThousands) {
  BTree tree(alloc_.get());
  for (std::int64_t i = 0; i < 5000; ++i) {
    std::int64_t v = i * 31;
    ASSERT_TRUE(tree.Insert(i, std::as_bytes(std::span(&v, 1))));
  }
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  for (std::int64_t i = 0; i < 5000; i += 97) {
    auto payload = tree.Find(i);
    ASSERT_TRUE(payload.has_value()) << i;
    std::int64_t v = 0;
    std::memcpy(&v, payload->data, 8);
    EXPECT_EQ(v, i * 31);
  }
  EXPECT_FALSE(tree.Find(5000).has_value());
  EXPECT_FALSE(tree.Find(-1).has_value());
}

TEST_F(BTreeTest, RandomOrderInsertStaysSorted) {
  BTree tree(alloc_.get());
  ukarch::Xorshift rng(99);
  std::set<std::int64_t> keys;
  while (keys.size() < 2000) {
    auto k = static_cast<std::int64_t>(rng.NextBelow(1'000'000));
    std::int64_t v = k;
    if (keys.insert(k).second) {
      ASSERT_TRUE(tree.Insert(k, std::as_bytes(std::span(&v, 1))));
    }
  }
  EXPECT_TRUE(tree.CheckInvariants());
  // Scan returns keys in order.
  std::vector<std::int64_t> scanned;
  tree.Scan(INT64_MIN, INT64_MAX, [&](std::int64_t k, BTree::Payload) {
    scanned.push_back(k);
    return true;
  });
  EXPECT_EQ(scanned.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

TEST_F(BTreeTest, OverwriteAndErase) {
  BTree tree(alloc_.get());
  std::int64_t v1 = 1, v2 = 2;
  tree.Insert(7, std::as_bytes(std::span(&v1, 1)));
  tree.Insert(7, std::as_bytes(std::span(&v2, 1)));
  EXPECT_EQ(tree.size(), 1u);
  std::int64_t got = 0;
  std::memcpy(&got, tree.Find(7)->data, 8);
  EXPECT_EQ(got, 2);
  EXPECT_TRUE(tree.Erase(7));
  EXPECT_FALSE(tree.Erase(7));
  EXPECT_EQ(tree.size(), 0u);
}

TEST_F(BTreeTest, MemoryReturnedOnDestroy) {
  std::uint64_t before = alloc_->stats().bytes_in_use;
  {
    BTree tree(alloc_.get());
    std::int64_t v = 0;
    for (std::int64_t i = 0; i < 1000; ++i) {
      tree.Insert(i, std::as_bytes(std::span(&v, 1)));
    }
    EXPECT_GT(alloc_->stats().bytes_in_use, before);
  }
  EXPECT_EQ(alloc_->stats().bytes_in_use, before);
}

TEST_F(BTreeTest, RangeScanBounds) {
  BTree tree(alloc_.get());
  std::int64_t v = 0;
  for (std::int64_t i = 0; i < 100; ++i) {
    tree.Insert(i * 10, std::as_bytes(std::span(&v, 1)));
  }
  int count = 0;
  tree.Scan(250, 500, [&](std::int64_t k, BTree::Payload) {
    EXPECT_GE(k, 250);
    EXPECT_LE(k, 500);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 26);  // 250..500 inclusive, step 10
}

// ---- SQL --------------------------------------------------------------------------------

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : mem_(new std::byte[kHeap]) {
    alloc_ = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem_.get(), kHeap);
    db_ = std::make_unique<Database>(alloc_.get());
  }
  static constexpr std::size_t kHeap = 32 << 20;
  std::unique_ptr<std::byte[]> mem_;
  std::unique_ptr<ukalloc::Allocator> alloc_;
  std::unique_ptr<Database> db_;
};

TEST_F(SqlTest, CreateInsertSelect) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE users (id INTEGER, name TEXT)").ok);
  ASSERT_TRUE(db_->Execute("INSERT INTO users VALUES (1, 'ada')").ok);
  ASSERT_TRUE(db_->Execute("INSERT INTO users VALUES (2, 'grace')").ok);
  SqlResult r = db_->Execute("SELECT * FROM users WHERE id = 2");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(r.rows[0].values[1]), "grace");
}

TEST_F(SqlTest, SelectRangeAndProjection) {
  db_->Execute("CREATE TABLE t (k INTEGER, v TEXT)");
  for (int i = 0; i < 50; ++i) {
    std::string stmt = "INSERT INTO t VALUES (" + std::to_string(i) + ", 'row" +
                       std::to_string(i) + "')";
    ASSERT_TRUE(db_->Execute(stmt).ok);
  }
  SqlResult r = db_->Execute("SELECT v FROM t WHERE k < 5");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].values.size(), 1u);  // projected
  EXPECT_EQ(std::get<std::string>(r.rows[4].values[0]), "row4");
  r = db_->Execute("SELECT * FROM t WHERE k >= 45");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(SqlTest, DeleteRows) {
  db_->Execute("CREATE TABLE t (k INTEGER, v TEXT)");
  for (int i = 0; i < 10; ++i) {
    db_->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", 'x')");
  }
  SqlResult r = db_->Execute("DELETE FROM t WHERE k = 3");
  EXPECT_EQ(r.rows_affected, 1u);
  r = db_->Execute("DELETE FROM t WHERE k >= 7");
  EXPECT_EQ(r.rows_affected, 3u);
  r = db_->Execute("SELECT * FROM t");
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(SqlTest, ErrorsAreReported) {
  EXPECT_FALSE(db_->Execute("DROP TABLE t").ok);
  EXPECT_FALSE(db_->Execute("INSERT INTO missing VALUES (1)").ok);
  db_->Execute("CREATE TABLE t (k INTEGER)");
  EXPECT_FALSE(db_->Execute("INSERT INTO t VALUES (1, 2)").ok);  // count mismatch
  EXPECT_FALSE(db_->Execute("CREATE TABLE t (k INTEGER)").ok);   // duplicate
}

TEST_F(SqlTest, QuotedStringsWithEscapes) {
  db_->Execute("CREATE TABLE q (k INTEGER, s TEXT)");
  ASSERT_TRUE(db_->Execute("INSERT INTO q VALUES (1, 'it''s fine')").ok);
  SqlResult r = db_->Execute("SELECT s FROM q WHERE k = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(r.rows[0].values[0]), "it's fine");
}

TEST_F(SqlTest, TransactionsAreAcceptedNoOps) {
  EXPECT_TRUE(db_->Execute("BEGIN").ok);
  db_->Execute("CREATE TABLE t (k INTEGER)");
  EXPECT_TRUE(db_->Execute("COMMIT").ok);
}

// ---- kvstore ----------------------------------------------------------------------------

class KvTest : public ::testing::Test {
 protected:
  KvTest() : bed_(env::Profile::UnikraftKvm()) {}
  env::TestBed bed_;
};

TEST_F(KvTest, SocketSingleMode) {
  KvServer server(&bed_.api(), 7777, KvMode::kSocketSingle);
  ASSERT_TRUE(server.Start());
  auto client = bed_.client().stack->UdpOpen();
  auto set = EncodeKvRequest({true, 42, "value42"});
  client->SendTo(env::TestBed::kServerIp, 7777, set);
  for (int i = 0; i < 200; ++i) {
    bed_.Poll();
    server.PumpOnce();
  }
  auto get = EncodeKvRequest({false, 42, ""});
  client->SendTo(env::TestBed::kServerIp, 7777, get);
  for (int i = 0; i < 200; ++i) {
    bed_.Poll();
    server.PumpOnce();
  }
  // Two replies: "K" then "value42".
  auto r1 = client->RecvFrom();
  auto r2 = client->RecvFrom();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->payload[0], 'K');
  EXPECT_EQ(std::string(r2->payload.begin(), r2->payload.end()), "value42");
  EXPECT_EQ(server.requests(), 2u);
}

TEST_F(KvTest, BatchModeUsesOneSyscallPerBatch) {
  KvServer server(&bed_.api(), 7777, KvMode::kSocketBatch);
  ASSERT_TRUE(server.Start());
  auto client = bed_.client().stack->UdpOpen();
  for (int i = 0; i < 16; ++i) {
    client->SendTo(env::TestBed::kServerIp, 7777, EncodeKvRequest({true, 1, "v"}));
    bed_.Poll();
  }
  for (int i = 0; i < 200; ++i) {
    bed_.Poll();
  }
  std::uint64_t calls_before = bed_.api().shim().calls();
  std::size_t handled = server.PumpOnce();
  EXPECT_EQ(handled, 16u);
  // One epoll_wait (the event-loop turn) + recvmmsg + sendmmsg for the whole
  // 16-packet batch: syscall count stays O(1) per batch, not per packet.
  EXPECT_LE(bed_.api().shim().calls() - calls_before, 3u);
}

// Replies of one recvmmsg batch go back to each datagram's own sender.
TEST_F(KvTest, BatchModeRepliesToEachSender) {
  KvServer server(&bed_.api(), 7777, KvMode::kSocketBatch);
  ASSERT_TRUE(server.Start());
  auto a = bed_.client().stack->UdpOpen();
  auto b = bed_.client().stack->UdpOpen();
  // Sends one request from each socket, answers both in one batch, and
  // returns every reply payload each socket got.
  auto exchange = [&](const KvRequest& from_a, const KvRequest& from_b) {
    a->SendTo(env::TestBed::kServerIp, 7777, EncodeKvRequest(from_a));
    b->SendTo(env::TestBed::kServerIp, 7777, EncodeKvRequest(from_b));
    for (int i = 0; i < 200; ++i) {
      bed_.Poll();
    }
    EXPECT_EQ(server.PumpOnce(), 2u);
    for (int i = 0; i < 200; ++i) {
      bed_.Poll();
    }
    std::vector<std::string> got[2];
    for (int s = 0; s < 2; ++s) {
      while (auto r = (s == 0 ? a : b)->RecvFrom()) {
        got[s].emplace_back(r->payload.begin(), r->payload.end());
      }
    }
    return std::pair(got[0], got[1]);
  };
  auto [a_sets, b_sets] = exchange({true, 1, "from-a"}, {true, 2, "from-b"});
  EXPECT_EQ(a_sets, std::vector<std::string>{"K"});
  EXPECT_EQ(b_sets, std::vector<std::string>{"K"});
  auto [a_gets, b_gets] = exchange({false, 2, ""}, {false, 1, ""});
  EXPECT_EQ(a_gets, std::vector<std::string>{"from-b"});
  EXPECT_EQ(b_gets, std::vector<std::string>{"from-a"});
}

TEST_F(KvTest, NetdevModeBypassesStackEntirely) {
  // The server owns a raw NIC with no stack attached; the client on the
  // other wire side runs a full stack.
  ukplat::Clock clock;
  ukplat::MemRegion mem(32 << 20);
  std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                        mem.At(heap_gpa, 24 << 20), 24 << 20);
  ukplat::Wire wire2(&clock);
  uknetdev::VirtioNet::Config nic_cfg;
  nic_cfg.backend = uknetdev::VirtioBackend::kVhostUser;
  nic_cfg.wire_side = 0;
  uknetdev::VirtioNet nic(&mem, &clock, &wire2, nic_cfg);

  KvServer server(&nic, &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
                  KvMode::kUkNetdev);
  ASSERT_TRUE(server.Start());

  // The specialized path's zero-alloc invariant (Fig 18 gate): replies are
  // written in place in the RX buffer, so the TX pool must never churn.
  netharness::ZeroAllocGuard guard({server.tx_pool()}, alloc.get());

  // Client on side 1 of wire2 with a full stack.
  env::SimHost client2(&clock, &wire2, 1, uknet::MakeIp(10, 0, 0, 2),
                       ukalloc::Backend::kTlsf, uknetdev::VirtioBackend::kVhostUser);
  client2.netif->AddArpEntry(uknet::MakeIp(10, 0, 0, 1), nic.mac());
  auto client = client2.stack->UdpOpen();
  client->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777, EncodeKvRequest({true, 9, "nine"}));
  client2.stack->Poll();
  for (int i = 0; i < 200; ++i) {
    server.PumpOnce();
    client2.stack->Poll();
  }
  client->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777, EncodeKvRequest({false, 9, ""}));
  for (int i = 0; i < 200; ++i) {
    server.PumpOnce();
    client2.stack->Poll();
  }
  EXPECT_EQ(server.requests(), 2u);
  auto r1 = client->RecvFrom();
  auto r2 = client->RecvFrom();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(std::string(r2->payload.begin(), r2->payload.end()), "nine");
  guard.ExpectPoolFlat("kvstore uknetdev in-place replies");
}

// An empty stored value is a reply of length 0, not "no reply": the GET on
// the key's home flow is answered with an empty payload and counted.
TEST_F(KvTest, NetdevModeAnswersGetOfEmptyValue) {
  ukplat::Clock clock;
  ukplat::MemRegion mem(32 << 20);
  std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                        mem.At(heap_gpa, 24 << 20), 24 << 20);
  ukplat::Wire wire2(&clock);
  uknetdev::VirtioNet::Config nic_cfg;
  nic_cfg.backend = uknetdev::VirtioBackend::kVhostUser;
  nic_cfg.wire_side = 0;
  uknetdev::VirtioNet nic(&mem, &clock, &wire2, nic_cfg);
  KvServer server(&nic, &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
                  KvMode::kUkNetdev);
  ASSERT_TRUE(server.Start());
  env::SimHost client2(&clock, &wire2, 1, uknet::MakeIp(10, 0, 0, 2),
                       ukalloc::Backend::kTlsf, uknetdev::VirtioBackend::kVhostUser);
  client2.netif->AddArpEntry(uknet::MakeIp(10, 0, 0, 1), nic.mac());
  auto client = client2.stack->UdpOpen();
  std::vector<std::string> replies;
  for (const KvRequest& req : {KvRequest{true, 5, ""}, KvRequest{false, 5, ""}}) {
    client->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777, EncodeKvRequest(req));
    for (int i = 0; i < 200; ++i) {
      client2.stack->Poll();
      server.PumpOnce();
    }
    while (auto r = client->RecvFrom()) {
      replies.emplace_back(r->payload.begin(), r->payload.end());
    }
  }
  EXPECT_EQ(replies, (std::vector<std::string>{"K", ""}));
  EXPECT_EQ(server.requests(), 2u);
}

// Multi-queue kvstore: a 2-queue server pumps each queue independently;
// every flow is answered from the queue it hashed to, replies stay correct,
// and the in-place reply path keeps both TX pools at zero churn.
TEST_F(KvTest, NetdevModeShardsFlowsAcrossQueues) {
  ukplat::Clock clock;
  ukplat::MemRegion mem(32 << 20);
  std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                        mem.At(heap_gpa, 24 << 20), 24 << 20);
  ukplat::Wire wire2(&clock);
  uknetdev::VirtioNet::Config nic_cfg;
  nic_cfg.backend = uknetdev::VirtioBackend::kVhostUser;
  nic_cfg.wire_side = 0;
  uknetdev::VirtioNet nic(&mem, &clock, &wire2, nic_cfg);

  KvServer server(&nic, &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
                  KvMode::kUkNetdev, /*queues=*/2);
  ASSERT_TRUE(server.Start());
  ASSERT_EQ(server.queue_count(), 2);
  netharness::ZeroAllocGuard guard({server.tx_pool(0), server.tx_pool(1)},
                                   alloc.get());

  env::SimHost client2(&clock, &wire2, 1, uknet::MakeIp(10, 0, 0, 2),
                       ukalloc::Backend::kTlsf, uknetdev::VirtioBackend::kVhostUser);
  client2.netif->AddArpEntry(uknet::MakeIp(10, 0, 0, 1), nic.mac());

  // One client socket per server queue (by the shared symmetric flow hash).
  std::shared_ptr<uknet::UdpSocket> flow[2];
  while (flow[0] == nullptr || flow[1] == nullptr) {
    auto c = client2.stack->UdpOpen();
    std::uint16_t q = static_cast<std::uint16_t>(
        ukarch::FlowHash4(uknet::MakeIp(10, 0, 0, 2), c->local_port(),
                          uknet::MakeIp(10, 0, 0, 1), 7777) %
        2);
    if (flow[q] == nullptr) {
      flow[q] = std::move(c);
    }
  }
  // Shard-aligned keys: each flow asks for keys its own queue owns, so the
  // whole request stays inside one loop (the zero-alloc fast path).
  auto key_for = [](std::uint16_t q) {
    std::uint16_t k = 0;
    while (KvServer::ShardForKey(k, 2) != q) {
      ++k;
    }
    return k;
  };
  for (std::uint16_t q = 0; q < 2; ++q) {
    std::string v = q == 0 ? "zero" : "one";
    flow[q]->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777,
                    EncodeKvRequest({true, key_for(q), v}));
    flow[q]->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777,
                    EncodeKvRequest({false, key_for(q), ""}));
  }
  // One event loop per queue, round-robined by the single test thread.
  for (int i = 0; i < 200; ++i) {
    client2.stack->Poll();
    server.PumpQueue(0);
    server.PumpQueue(1);
  }
  EXPECT_EQ(server.requests(), 4u);
  EXPECT_EQ(server.queue_requests(0), 2u);
  EXPECT_EQ(server.queue_requests(1), 2u);
  auto a1 = flow[0]->RecvFrom();
  auto a2 = flow[0]->RecvFrom();
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(std::string(a2->payload.begin(), a2->payload.end()), "zero");
  auto b1 = flow[1]->RecvFrom();
  auto b2 = flow[1]->RecvFrom();
  ASSERT_TRUE(b1 && b2);
  EXPECT_EQ(std::string(b2->payload.begin(), b2->payload.end()), "one");
  guard.ExpectPoolFlat("2-queue kvstore in-place replies");
  // Shared-nothing audit: with shard-aligned traffic neither loop ever
  // touched the other's store (and no ring traffic was needed).
  EXPECT_EQ(server.shard_accesses(0, 1), 0u);
  EXPECT_EQ(server.shard_accesses(1, 0), 0u);
  EXPECT_EQ(server.ring_messages(), 0u);
}

// The DPDK row is the uknetdev path answered into a fresh TX-pool buffer per
// packet: the same reply payloads, and every TX buffer it takes goes back.
TEST_F(KvTest, DpdkModeRepliesLikeUkNetdevThroughFreshTxBuffers) {
  struct Run {
    std::vector<std::string> replies;
    std::uint64_t tx_allocs = 0;
    bool tx_pool_refilled = false;
  };
  auto run = [](KvMode mode) {
    ukplat::Clock clock;
    ukplat::MemRegion mem(32 << 20);
    std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
    auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                          mem.At(heap_gpa, 24 << 20), 24 << 20);
    ukplat::Wire wire(&clock);
    uknetdev::VirtioNet::Config nic_cfg;
    nic_cfg.backend = uknetdev::VirtioBackend::kVhostUser;
    nic_cfg.wire_side = 0;
    uknetdev::VirtioNet nic(&mem, &clock, &wire, nic_cfg);
    KvServer server(&nic, &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777, mode);
    Run out;
    if (!server.Start()) {
      ADD_FAILURE() << "Start failed";
      return out;
    }
    const uknetdev::NetBufPool* tx = server.tx_pool();
    const std::uint32_t tx_available = tx->available();
    const std::uint64_t tx_allocs = tx->total_allocs();

    env::SimHost client_host(&clock, &wire, 1, uknet::MakeIp(10, 0, 0, 2),
                             ukalloc::Backend::kTlsf, uknetdev::VirtioBackend::kVhostUser);
    client_host.netif->AddArpEntry(uknet::MakeIp(10, 0, 0, 1), nic.mac());
    auto client = client_host.stack->UdpOpen();
    // SET, GET hit, GET miss: one at a time so the replies keep their order.
    for (const KvRequest& req : {KvRequest{true, 9, "nine"}, KvRequest{false, 9, ""},
                                 KvRequest{false, 10, ""}}) {
      client->SendTo(uknet::MakeIp(10, 0, 0, 1), 7777, EncodeKvRequest(req));
      for (int i = 0; i < 200; ++i) {
        client_host.stack->Poll();
        server.PumpOnce();
      }
    }
    while (auto r = client->RecvFrom()) {
      out.replies.emplace_back(r->payload.begin(), r->payload.end());
    }
    EXPECT_EQ(server.requests(), 3u);
    out.tx_allocs = tx->total_allocs() - tx_allocs;
    out.tx_pool_refilled = tx->available() == tx_available;
    return out;
  };
  const Run netdev = run(KvMode::kUkNetdev);
  const Run dpdk = run(KvMode::kDpdkStyle);
  EXPECT_EQ(netdev.replies, (std::vector<std::string>{"K", "nine", "E"}));
  EXPECT_EQ(dpdk.replies, netdev.replies);
  EXPECT_EQ(netdev.tx_allocs, 0u);  // in place: the TX pool never churns
  EXPECT_EQ(dpdk.tx_allocs, 3u);    // one fresh TX buffer per reply...
  EXPECT_TRUE(dpdk.tx_pool_refilled);  // ...each back in the pool after TX
  EXPECT_TRUE(netdev.tx_pool_refilled);
}

}  // namespace
