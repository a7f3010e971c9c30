// Tests for the POSIX layer: syscall table data, shim dispatch modes and
// costs (Table 1 substrate), fd table, and PosixApi over VFS + sockets.
#include <gtest/gtest.h>

#include <cstring>

#include "env/testbed.h"
#include "posix/api.h"
#include "posix/syscalls.h"

namespace {

using namespace posix;

TEST(SyscallTable, KnownNumbers) {
  EXPECT_EQ(SyscallName(0), "read");
  EXPECT_EQ(SyscallName(1), "write");
  EXPECT_EQ(SyscallName(41), "socket");
  EXPECT_EQ(SyscallName(313), "finit_module");
  EXPECT_EQ(SyscallName(314), "");
  EXPECT_EQ(SyscallNumber("epoll_wait"), 232);
  EXPECT_EQ(SyscallNumber("nonexistent_call"), -1);
}

TEST(SyscallTable, SupportedCountMatchesPaper) {
  // §4.1: "we have implementations for 146 syscalls".
  EXPECT_NEAR(static_cast<double>(SupportedSyscalls().size()), 146.0, 6.0);
  EXPECT_TRUE(SupportedSyscalls().contains(SyscallNumber("read")));
  EXPECT_TRUE(SupportedSyscalls().contains(SyscallNumber("socket")));
  EXPECT_FALSE(SupportedSyscalls().contains(SyscallNumber("io_submit")));
  EXPECT_FALSE(SupportedSyscalls().contains(SyscallNumber("finit_module")));
}

TEST(Shim, DispatchCostLadderMatchesTable1) {
  ukplat::CostModel m;
  // function call < shim < binary-compat < trap-nomitig < trap.
  std::uint64_t direct = SyscallShim::EntryCost(DispatchMode::kDirectCall, m);
  std::uint64_t shim = SyscallShim::EntryCost(DispatchMode::kShimTable, m);
  std::uint64_t compat = SyscallShim::EntryCost(DispatchMode::kBinaryCompat, m);
  std::uint64_t fast = SyscallShim::EntryCost(DispatchMode::kLinuxTrapFast, m);
  std::uint64_t full = SyscallShim::EntryCost(DispatchMode::kLinuxTrap, m);
  EXPECT_LT(direct, shim);
  EXPECT_LT(shim, compat);
  EXPECT_LT(compat, fast);
  EXPECT_LT(fast, full);
  EXPECT_EQ(direct, 4u);
  EXPECT_EQ(compat, 84u);
  EXPECT_EQ(fast, 154u);
  EXPECT_EQ(full, 222u);
}

TEST(Shim, ChargesPerCallAndStubsEnosys) {
  ukplat::Clock clock;
  SyscallShim shim(&clock, DispatchMode::kLinuxTrap);
  shim.Register(SyscallNumber("getpid"), [](const SyscallArgs&) { return 42; });
  EXPECT_EQ(shim.Call(SyscallNumber("getpid")), 42);
  EXPECT_EQ(clock.cycles(), 222u);
  // Unregistered syscall: automatic -ENOSYS (§4.1).
  EXPECT_EQ(shim.Call(SyscallNumber("io_submit")), -38);
  EXPECT_EQ(shim.enosys_calls(), 1u);
  EXPECT_EQ(shim.calls(), 2u);
}

TEST(FdTableTest, InstallCloseReuse) {
  FdTable tab(16);
  auto pending = std::make_shared<PendingSocket>();
  int fd = tab.Install(pending);
  EXPECT_EQ(fd, 3);  // 0-2 reserved
  EXPECT_TRUE(tab.InUse(fd));
  EXPECT_TRUE(Ok(tab.Close(fd)));
  EXPECT_FALSE(tab.InUse(fd));
  EXPECT_EQ(tab.Close(fd), ukarch::Status::kBadF);
  EXPECT_EQ(tab.Install(std::make_shared<PendingSocket>()), 3);  // lowest reused
}

TEST(FdTableTest, Dup2ClosesTargetButSelfDupIsNoOp) {
  FdTable tab(16);
  int fd = tab.Install(std::make_shared<PendingSocket>());
  int other = tab.Install(std::make_shared<PendingSocket>());
  // POSIX: dup2 with equal descriptors returns newfd and closes nothing.
  EXPECT_EQ(tab.Dup2(fd, fd), fd);
  EXPECT_TRUE(tab.InUse(fd));
  // Distinct descriptors: the target is implicitly closed, then replaced.
  EXPECT_EQ(tab.Dup2(fd, other), other);
  EXPECT_EQ(tab.Get<PendingSocket>(other), tab.Get<PendingSocket>(fd));
}

TEST(FdTableTest, ExhaustionGivesEmfile) {
  FdTable tab(5);  // fds 3,4 usable
  EXPECT_EQ(tab.Install(std::make_shared<PendingSocket>()), 3);
  EXPECT_EQ(tab.Install(std::make_shared<PendingSocket>()), 4);
  EXPECT_EQ(tab.Install(std::make_shared<PendingSocket>()), -24);  // EMFILE
}

TEST(FdTableTest, TypedGet) {
  FdTable tab(16);
  int fd = tab.Install(std::make_shared<PendingSocket>());
  EXPECT_NE(tab.Get<PendingSocket>(fd), nullptr);
  EXPECT_EQ(tab.Get<vfscore::File>(fd), nullptr);
  EXPECT_EQ(tab.Get<PendingSocket>(99), nullptr);
  EXPECT_EQ(tab.Get<PendingSocket>(-1), nullptr);
}

class PosixApiTest : public ::testing::Test {
 protected:
  PosixApiTest() : bed_(env::Profile::UnikraftKvm()) {}
  env::TestBed bed_;
};

TEST_F(PosixApiTest, FileLifecycle) {
  posix::PosixApi& api = bed_.api();
  int fd = api.Open("/notes.txt", vfscore::kWrite | vfscore::kCreate);
  ASSERT_GE(fd, 3);
  const char text[] = "posix over vfscore";
  EXPECT_EQ(api.Write(fd, std::as_bytes(std::span(text, sizeof(text) - 1))),
            static_cast<std::int64_t>(sizeof(text) - 1));
  EXPECT_EQ(api.Close(fd), 0);

  int rd = api.Open("/notes.txt", vfscore::kRead);
  ASSERT_GE(rd, 3);
  char buf[64] = {};
  EXPECT_EQ(api.Read(rd, std::as_writable_bytes(std::span(buf))),
            static_cast<std::int64_t>(sizeof(text) - 1));
  EXPECT_STREQ(buf, text);
  api.Close(rd);

  vfscore::NodeStat st;
  EXPECT_EQ(api.Stat("/notes.txt", &st), 0);
  EXPECT_EQ(st.size, sizeof(text) - 1);
  EXPECT_EQ(api.Unlink("/notes.txt"), 0);
  EXPECT_EQ(api.Open("/notes.txt", vfscore::kRead), -2);  // ENOENT
}

TEST_F(PosixApiTest, PreadPwriteAndSeek) {
  posix::PosixApi& api = bed_.api();
  int fd = api.Open("/f", vfscore::kWrite | vfscore::kRead | vfscore::kCreate);
  const char text[] = "0123456789";
  api.Write(fd, std::as_bytes(std::span(text, 10)));
  char buf[4] = {};
  EXPECT_EQ(api.Pread(fd, 4, std::as_writable_bytes(std::span(buf))), 4);
  EXPECT_EQ(buf[0], '4');
  EXPECT_EQ(api.Lseek(fd, 2, 0), 2);
  EXPECT_EQ(api.Read(fd, std::as_writable_bytes(std::span(buf, 1))), 1);
  EXPECT_EQ(buf[0], '2');
  api.Close(fd);
}

TEST_F(PosixApiTest, FsyncErrnoSemantics) {
  posix::PosixApi& api = bed_.api();
  // Unknown fd: EBADF.
  EXPECT_EQ(api.Fsync(99), ukarch::Raw(ukarch::Status::kBadF));
  // Read-only descriptor: EBADF (nothing of this handle's can be dirty).
  int wr = api.Open("/sync.txt", vfscore::kWrite | vfscore::kCreate);
  ASSERT_GE(wr, 3);
  const char text[] = "dirty";
  api.Write(wr, std::as_bytes(std::span(text, 5)));
  EXPECT_EQ(api.Fsync(wr), 0);  // ramfs: Node::Fsync no-op, still success
  int rd = api.Open("/sync.txt", vfscore::kRead);
  ASSERT_GE(rd, 3);
  EXPECT_EQ(api.Fsync(rd), ukarch::Raw(ukarch::Status::kBadF));
  api.Close(wr);
  api.Close(rd);
}

TEST_F(PosixApiTest, EveryCallChargesDispatchCost) {
  posix::PosixApi& api = bed_.api();
  std::uint64_t calls_before = api.shim().calls();
  std::uint64_t cycles_before = bed_.clock().cycles();
  api.GetPid();
  EXPECT_EQ(api.shim().calls(), calls_before + 1);
  EXPECT_GE(bed_.clock().cycles() - cycles_before,
            SyscallShim::EntryCost(DispatchMode::kDirectCall,
                                   bed_.clock().model()));
}

TEST_F(PosixApiTest, UdpSocketRoundTrip) {
  posix::PosixApi& api = bed_.api();
  int fd = api.Socket(SockType::kDgram);
  ASSERT_GE(fd, 3);
  EXPECT_EQ(api.Bind(fd, 5353), 0);

  // Client sends a datagram from the other host.
  auto client = bed_.client().stack->UdpOpen();
  std::uint8_t ping[] = {'p', 'i', 'n', 'g'};
  client->SendTo(env::TestBed::kServerIp, 5353, ping);
  for (int i = 0; i < 100; ++i) {
    bed_.Poll();
  }
  std::uint8_t buf[64];
  uknet::Ip4Addr src_ip = 0;
  std::uint16_t src_port = 0;
  EXPECT_EQ(api.RecvFrom(fd, buf, &src_ip, &src_port), 4);
  EXPECT_EQ(src_ip, env::TestBed::kClientIp);
  // Reply.
  EXPECT_EQ(api.SendTo(fd, src_ip, src_port, std::span(buf, 4)), 4);
  for (int i = 0; i < 100; ++i) {
    bed_.Poll();
  }
  EXPECT_TRUE(client->readable());
}

TEST_F(PosixApiTest, TcpServerAcceptThroughApi) {
  posix::PosixApi& api = bed_.api();
  int fd = api.Socket(SockType::kStream);
  ASSERT_GE(fd, 3);
  EXPECT_EQ(api.Bind(fd, 8080), 0);
  EXPECT_EQ(api.Listen(fd), 0);
  EXPECT_EQ(api.Accept(fd), -11);  // EAGAIN, nothing pending

  auto client = bed_.client().stack->TcpConnect(env::TestBed::kServerIp, 8080);
  for (int i = 0; i < 200 && !client->connected(); ++i) {
    bed_.Poll();
  }
  ASSERT_TRUE(client->connected());
  int conn = api.Accept(fd);
  ASSERT_GE(conn, 3);

  std::uint8_t msg[] = {'h', 'i'};
  client->Send(msg);
  for (int i = 0; i < 100; ++i) {
    bed_.Poll();
  }
  std::uint8_t buf[16];
  EXPECT_EQ(api.Recv(conn, buf), 2);
  EXPECT_EQ(buf[0], 'h');
}

// Non-blocking TCP reads never drive the stack: a recv on an empty socket
// returns EAGAIN and leaves a frame already on its way untouched; the data
// arrives through the next stack pass.
TEST_F(PosixApiTest, NonBlockingTcpRecvRunsNoStackPass) {
  posix::PosixApi& api = bed_.api();
  int fd = api.Socket(SockType::kStream);
  ASSERT_EQ(api.Bind(fd, 8081), 0);
  ASSERT_EQ(api.Listen(fd), 0);
  auto client = bed_.client().stack->TcpConnect(env::TestBed::kServerIp, 8081);
  for (int i = 0; i < 200 && !client->connected(); ++i) {
    bed_.Poll();
  }
  int conn = api.Accept(fd);
  ASSERT_GE(conn, 3);
  for (int i = 0; i < 10; ++i) {
    bed_.Poll();  // settle the handshake's trailing frames
  }
  std::uint8_t buf[16];
  const auto rx_before = bed_.server().nic->stats().rx_packets;
  EXPECT_EQ(api.Recv(conn, buf), -11);  // EAGAIN, nothing received yet

  std::uint8_t msg[] = {'h', 'i'};
  ASSERT_EQ(client->Send(msg), 2);
  EXPECT_EQ(api.Recv(conn, buf), -11);  // the segment is on the wire, unreceived
  EXPECT_EQ(api.Recv(conn, buf), -11);
  EXPECT_EQ(bed_.server().nic->stats().rx_packets, rx_before);

  bed_.server().stack->Poll();
  EXPECT_EQ(bed_.server().nic->stats().rx_packets, rx_before + 1);
  EXPECT_EQ(api.Recv(conn, buf), 2);
  EXPECT_EQ(buf[0], 'h');
}

TEST_F(PosixApiTest, BatchedMmsgFewerSyscalls) {
  posix::PosixApi& api = bed_.api();
  int fd = api.Socket(SockType::kDgram);
  api.Bind(fd, 9000);
  auto client = bed_.client().stack->UdpOpen();
  for (int i = 0; i < 8; ++i) {
    std::uint8_t d[] = {static_cast<std::uint8_t>(i)};
    client->SendTo(env::TestBed::kServerIp, 9000, d);
    bed_.Poll();
  }
  for (int i = 0; i < 100; ++i) {
    bed_.Poll();
  }
  std::uint64_t calls_before = api.shim().calls();
  std::uint8_t storage[8][64];
  MmsgRecv msgs[8];
  for (int i = 0; i < 8; ++i) {
    msgs[i].data = storage[i];
    msgs[i].cap = 64;
  }
  EXPECT_EQ(api.RecvMmsg(fd, msgs), 8);
  EXPECT_EQ(api.shim().calls(), calls_before + 1);  // one syscall, 8 packets
  EXPECT_EQ(msgs[3].len, 1u);
  EXPECT_EQ(storage[3][0], 3);
}

}  // namespace
