// ukboot/instance.h - a running unikernel: guest RAM, boot sequence, inittab.
//
// The ukboot micro-library of the paper drives the boot: it receives the heap
// from the platform, initializes the chosen allocator with base+len, brings up
// the scheduler, then walks the constructor table (inittab) that other
// micro-libraries registered entries in, and finally calls main(). Instance
// reproduces that lifecycle over simulated guest RAM, with per-stage timing so
// Fig 14's stacked boot-time bars can be regenerated, and real allocation
// failure propagation so Fig 11's minimum-memory search is honest.
#ifndef UKBOOT_INSTANCE_H_
#define UKBOOT_INSTANCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ukalloc/registry.h"
#include "ukarch/status.h"
#include "ukboot/pagetable.h"
#include "ukplat/clock.h"
#include "ukplat/memregion.h"
#include "ukplat/vmm.h"
#include "uksched/scheduler.h"

namespace ukboot {

// Guest paging strategies from §6.1: static pre-initialized page table,
// dynamically populated page table, or none (32-bit protected mode).
enum class PagingMode { kStatic, kDynamic, kNone };

struct InstanceConfig {
  std::string name = "unikernel";
  std::size_t memory_bytes = 32ull << 20;
  ukalloc::Backend allocator = ukalloc::Backend::kTlsf;
  bool enable_scheduler = true;
  bool preemptive = false;
  PagingMode paging = PagingMode::kStatic;
  ukplat::VmmModel vmm = ukplat::VmmModel::Qemu();
  int nics = 0;
  ukplat::CostModel cost_model{};
};

// Inittab classes in boot order (mirrors Unikraft's uk_inittab levels).
enum class InitStage { kEarly, kPlat, kBus, kRootfs, kSys, kLate };

struct BootStageTime {
  std::string name;
  double real_ns = 0.0;  // measured host time of the real init work
};

struct BootReport {
  bool ok = false;
  std::string error;
  double vmm_us = 0.0;        // modeled monitor share (Fig 10's lower bar)
  double guest_us = 0.0;      // measured guest-side boot time
  std::vector<BootStageTime> stages;
};

class Instance {
 public:
  explicit Instance(InstanceConfig config);
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Registers a constructor-table entry. Must be called before Boot().
  // Entries run grouped by stage, in registration order within a stage.
  void RegisterInit(InitStage stage, std::string init_name,
                    std::function<ukarch::Status(Instance&)> fn);

  // Runs the boot sequence: paging -> allocator -> scheduler -> inittab.
  // Call again after Shutdown() to reboot the same config: the inittab is
  // retained and replayed, and the report carries fresh per-stage timings.
  BootReport Boot();
  bool booted() const { return booted_; }

  // Tears the instance down to its pre-boot state: scheduler, heap and page
  // table are destroyed in reverse boot order and guest RAM is wiped (carve
  // pointer rewound, bytes zeroed). Everything the instance's inittab built
  // on the heap — stacks, sockets, servers — must be destroyed by its owner
  // *before* Shutdown(); afterwards heap() is null until the next Boot().
  void Shutdown();

  // Boots completed over this instance's lifetime (bumped by each successful
  // Boot); lets tests assert a reboot actually re-ran the sequence.
  int generation() const { return generation_; }

  // Accessors for the assembled system. heap() is null before Boot().
  ukplat::MemRegion& mem() { return mem_; }
  ukplat::Clock& clock() { return clock_; }
  ukalloc::Allocator* heap() { return heap_.get(); }
  uksched::Scheduler* scheduler() { return sched_.get(); }
  const InstanceConfig& config() const { return config_; }
  std::uint64_t pagetable_root() const { return pt_root_; }
  PageTableBuilder* pagetable() { return pt_ ? pt_.get() : nullptr; }

 private:
  ukarch::Status SetupPaging(BootReport* report);
  ukarch::Status SetupAllocator(BootReport* report);
  ukarch::Status SetupScheduler(BootReport* report);

  InstanceConfig config_;
  ukplat::Clock clock_;
  ukplat::MemRegion mem_;
  std::unique_ptr<PageTableBuilder> pt_;
  std::uint64_t pt_root_ = PageTableBuilder::kBadGpa;
  std::unique_ptr<ukalloc::Allocator> heap_;
  std::unique_ptr<uksched::Scheduler> sched_;

  struct InitEntry {
    InitStage stage;
    std::string name;
    std::function<ukarch::Status(Instance&)> fn;
  };
  std::vector<InitEntry> inittab_;
  bool booted_ = false;
  int generation_ = 0;
};

}  // namespace ukboot

#endif  // UKBOOT_INSTANCE_H_
