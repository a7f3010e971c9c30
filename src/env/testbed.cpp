#include "env/testbed.h"

#include <cstdlib>

namespace env {

std::uint16_t QueuesFromEnv() {
  const char* v = std::getenv("UKRAFT_QUEUES");
  if (v == nullptr) {
    return 1;
  }
  long n = std::strtol(v, nullptr, 10);
  if (n < 1) {
    return 1;
  }
  if (n > 4) {
    return 4;
  }
  return static_cast<std::uint16_t>(n);
}

SimHost::SimHost(ukplat::Clock* clock, ukplat::Wire* wire, int side, uknet::Ip4Addr ip,
                 ukalloc::Backend alloc_backend, uknetdev::VirtioBackend net_backend,
                 std::size_t mem_bytes, std::uint16_t queues)
    : mem(mem_bytes) {
  if (queues == 0) {
    queues = QueuesFromEnv();
  }
  std::size_t heap_bytes = mem_bytes - (4ull << 20);
  std::uint64_t heap_gpa = mem.Carve(heap_bytes, 4096);
  alloc = ukalloc::CreateAllocator(alloc_backend, mem.At(heap_gpa, heap_bytes),
                                   heap_bytes);
  uknetdev::VirtioNet::Config cfg;
  cfg.backend = net_backend;
  cfg.wire_side = side;
  cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, static_cast<std::uint8_t>(side + 1)}};
  cfg.queue_size = 256;
  nic = std::make_unique<uknetdev::VirtioNet>(&mem, clock, wire, cfg);
  stack = std::make_unique<uknet::NetStack>(&mem, clock, alloc.get());
  uknet::NetIf::Config ifcfg;
  ifcfg.ip = ip;
  ifcfg.queues = queues;
  netif = stack->AddInterface(nic.get(), ifcfg);
}

TestBed::TestBed(Profile profile) : profile_(std::move(profile)) {
  wire_ = std::make_unique<ukplat::Wire>(&clock_);
  // Native/container profiles do not cross a VMM: their NIC uses the polled
  // (exit-free) path and pays the host kernel stack per packet instead.
  uknetdev::VirtioBackend server_backend =
      profile_.virtualized ? profile_.backend : uknetdev::VirtioBackend::kVhostUser;
  server_ = std::make_unique<SimHost>(&clock_, wire_.get(), 0, kServerIp,
                                      profile_.allocator, server_backend);
  // The client box is always the same machine: Linux + default stack.
  client_ = std::make_unique<SimHost>(&clock_, wire_.get(), 1, kClientIp,
                                      ukalloc::Backend::kTlsf,
                                      uknetdev::VirtioBackend::kVhostUser);
  // Pre-resolve ARP (the paper's warm-up phase).
  server_->netif->AddArpEntry(kClientIp, client_->nic->mac());
  client_->netif->AddArpEntry(kServerIp, server_->nic->mac());

  ramfs_ = std::make_unique<vfscore::RamFs>(server_->alloc.get());
  vfs_.Mount("/", ramfs_.get());
  api_ = std::make_unique<posix::PosixApi>(&clock_, &vfs_, server_->stack.get(),
                                           profile_.dispatch);
}


void TestBed::ChargeHostNetPath(std::size_t packets) {
  if (!profile_.virtualized) {
    clock_.Charge(profile_.host_net_per_packet * packets);
    return;
  }
  // Guests with a general-purpose kernel pay their own stack per packet on
  // top of the virtio path (unikernel stacks run for real in the simulation).
  clock_.Charge(profile_.guest_stack_per_packet * packets);
  // VMM I/O quality: Firecracker/uHyve-class monitors pay extra per packet
  // relative to QEMU/KVM's vhost path (§5.3, Firecracker issue #1034).
  if (profile_.vmm.io_efficiency < 1.0) {
    double extra = (1.0 / profile_.vmm.io_efficiency - 1.0) * 1200.0;
    clock_.Charge(static_cast<std::uint64_t>(extra * static_cast<double>(packets)));
  }
}

void TestBed::Poll() {
  server_->stack->Poll();
  client_->stack->Poll();
}

}  // namespace env
