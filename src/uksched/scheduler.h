// uksched/scheduler.h - the uksched API (§3.3).
//
// Scheduling in Unikraft is available but optional: images can be built with
// no scheduler at all (run-to-completion event loop), with a cooperative
// scheduler, or with a preemptive one. We reproduce that with real stackful
// threads over ucontext: the platform library contribution (context switching)
// is the swapcontext pair, and the policy lives in scheduler subclasses, just
// as the paper separates plat from uksched.
//
// Preemption is simulated deterministically: threads call PreemptPoint() at
// kernel-entry points (the syscall shim does this), and the preemptive
// scheduler forces a yield once the thread has consumed its virtual-time
// quantum. This keeps runs reproducible while still exercising involuntary
// context switches.
//
// Backends: the dispatch loop, ready queue, timed-wait bookkeeping and the
// WaitQueue protocol live here; HOW a context is created, entered and left is
// a virtual seam. The default backend is the ucontext fiber simulator; the
// ThreadScheduler backend (thread_scheduler.h) runs the same threads on real
// std::threads with run-to-block baton handoff, selected at runtime with
// UKRAFT_THREADS=real via MakeScheduler().
#ifndef UKSCHED_SCHEDULER_H_
#define UKSCHED_SCHEDULER_H_

#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ukalloc/allocator.h"
#include "ukplat/clock.h"

namespace uksched {

class Scheduler;
class ThreadScheduler;
class WaitQueue;

enum class ThreadState { kReady, kRunning, kBlocked, kExited };

class Thread {
 public:
  Thread(Scheduler* sched, std::string name, std::function<void()> entry,
         std::byte* stack, std::size_t stack_size);

  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  ThreadState state() const { return state_; }
  std::uint64_t slice_start_cycles() const { return slice_start_cycles_; }

 private:
  friend class Scheduler;
  friend class ThreadScheduler;
  friend class WaitQueue;

  static void Trampoline(unsigned hi, unsigned lo);

  Scheduler* sched_;
  std::string name_;
  std::function<void()> entry_;
  std::byte* stack_;
  std::size_t stack_size_;
  ucontext_t ctx_{};
  ThreadState state_ = ThreadState::kReady;
  std::uint64_t id_ = 0;
  std::uint64_t slice_start_cycles_ = 0;
  std::uint64_t voluntary_switches_ = 0;
  std::uint64_t involuntary_switches_ = 0;
  bool reaped_ = false;  // backend resources (stack / OS thread) released
  // Timed-wait bookkeeping (WaitQueue::WaitTimeout): the queue the thread is
  // parked on, its absolute wake deadline, and whether the wake was a timeout
  // (vs an explicit Wake()).
  WaitQueue* waitq_ = nullptr;
  std::uint64_t wake_deadline_ = 0;
  bool has_deadline_ = false;
  bool timed_out_ = false;
  // ThreadSanitizer fiber handle: TSan models each ucontext stack as a fiber
  // so the swapcontext pairs don't look like wild cross-stack accesses.
  // Unused (stays null) outside -fsanitize=thread builds and on the real
  // std::thread backend (which needs no annotation crutch: every handoff is
  // an ordinary mutex/condvar edge TSan understands natively).
  void* tsan_fiber_ = nullptr;
};

// FIFO queue of blocked threads, the building block for mutexes, semaphores
// and socket wait lists.
class WaitQueue {
 public:
  explicit WaitQueue(Scheduler* sched) : sched_(sched) {}
  // Detaches any still-parked threads so the scheduler never follows a
  // dangling queue pointer. Untimed waiters stay blocked forever (as they
  // always did on a destroyed queue); timed waiters still wake at their
  // deadline, reported as timed out.
  ~WaitQueue();

  // Blocks the calling thread until woken. Must run on a scheduler thread.
  void Wait();
  // Blocks until Wake() or until the virtual clock reaches |deadline_cycles|
  // (an absolute cycle count; Scheduler::kNoDeadline waits forever). When
  // every thread is blocked and at least one holds a deadline, the scheduler
  // advances the clock straight to the earliest deadline — the CPU halts
  // instead of spinning, which is the idle model interrupt-driven unikernels
  // rely on. Returns true when woken by Wake(), false on timeout.
  bool WaitTimeout(std::uint64_t deadline_cycles);
  // Check-and-park: atomically verifies |seq| still reads |last_seen| and
  // parks only then; returns true immediately (no block) when the sequence
  // moved. This closes the lost-doorbell race with producers on OTHER OS
  // threads — a producer publishes work, bumps |seq| (release) and rings
  // WakeOne; because the check and the park happen under the scheduler lock,
  // the bump is either observed here (no sleep) or ordered before the wake
  // (the sleeper is already in the queue). Same return contract as
  // WaitTimeout.
  bool WaitTimeoutUnless(const std::atomic<std::uint64_t>& seq,
                         std::uint64_t last_seen, std::uint64_t deadline_cycles);
  // Wakes up to |n| waiters (all when n == SIZE_MAX). Returns number woken.
  // Safe to call from a foreign OS thread on the ThreadScheduler backend.
  std::size_t Wake(std::size_t n = SIZE_MAX);
  // Wakes exactly the oldest waiter (FIFO). The targeted form for doorbell
  // notifications (SPSC rings): one message has one consumer, so waking the
  // whole queue would thundering-herd every sleeping loop only for all but
  // one to go straight back to sleep.
  std::size_t WakeOne() { return Wake(1); }
  bool empty() const { return waiters_.empty(); }
  std::size_t size() const { return waiters_.size(); }

 private:
  friend class Scheduler;  // timeout expiry removes threads from waiters_

  Scheduler* sched_;
  std::deque<Thread*> waiters_;
};

class Scheduler {
 public:
  struct Stats {
    std::uint64_t context_switches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t threads_created = 0;
    // Times the scheduler found nothing runnable and jumped the virtual
    // clock to the earliest timed-wait deadline (a HLT until the next timer
    // interrupt; zero in a pure spin workload).
    std::uint64_t idle_advances = 0;
  };

  // Sentinel deadline for WaitQueue::WaitTimeout: wait forever.
  static constexpr std::uint64_t kNoDeadline = ~0ull;

  Scheduler(ukalloc::Allocator* alloc, ukplat::Clock* clock)
      : alloc_(alloc), clock_(clock) {}
  virtual ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual const char* name() const = 0;
  // True when scheduler threads are real OS threads (ThreadScheduler). The
  // dispatch discipline is identical either way (run-to-block, FIFO baton);
  // what changes is that WaitQueue wakes may arrive from foreign OS threads.
  virtual bool real_threads() const { return false; }

  // Creates a thread; it becomes runnable immediately. Returns nullptr when
  // the backend cannot prepare it (fiber stacks come from the allocator, so
  // Fig 11's minimum-memory runs hit this).
  Thread* CreateThread(std::string tname, std::function<void()> entry,
                       std::size_t stack_size = kDefaultStackSize);

  // Runs ready threads until everything is exited or blocked. Returns the
  // number of threads still blocked (0 means clean completion).
  std::size_t Run();

  // Called from inside a thread: give up the CPU voluntarily.
  void Yield();
  // Called from inside a thread at kernel-entry points; may force a yield
  // under the preemptive policy.
  void PreemptPoint();
  // Terminates the calling thread.
  void Exit();

  Thread* current() const { return current_; }
  const Stats& stats() const { return stats_; }
  ukplat::Clock* clock() const { return clock_; }

  static constexpr std::size_t kDefaultStackSize = 64 * 1024;

 protected:
  // Policy hook: whether |t| must be preempted at a preemption point.
  virtual bool ShouldPreempt(const Thread& t) const = 0;

  // ---- backend seam ---------------------------------------------------------
  // Default implementations are the ucontext fiber simulator. All are called
  // with the scheduler lock held (a no-op lock on the fiber backend).
  // Allocates/binds the execution context for a new thread.
  virtual bool PrepareThread(Thread* t, std::size_t stack_size);
  // Dispatcher -> thread handoff; returns when the thread yields, blocks or
  // exits.
  virtual void SwitchTo(Thread* t);
  // Thread -> dispatcher handoff (the other half of SwitchTo).
  virtual void SwitchBack();
  // Releases backend resources of an exited thread (stack / OS thread join).
  virtual void ReleaseThread(Thread* t);
  // Serializes scheduler state against foreign-OS-thread callers (WaitQueue
  // wakes). The fiber backend runs on one OS thread: no-ops.
  virtual void Lock() const {}
  virtual void Unlock() const {}
  // Idle hook, called with nothing runnable (lock held): a real-thread
  // backend parks briefly in real time so an external producer's Wake can
  // land before the virtual clock jumps a timed wait to its deadline.
  // Returns true when something became runnable.
  virtual bool IdleWait() { return false; }

  // Makes |t| runnable (lock held). The real-thread backend also pokes its
  // condvar so an idle dispatcher notices external wakes.
  virtual void Enqueue(Thread* t);

  void ReapExited();
  // Timed waits: wake every blocked thread whose deadline has passed; when
  // nothing is runnable, jump the clock to the earliest pending deadline.
  void WakeExpired();
  bool AdvanceToNextDeadline();

  ukalloc::Allocator* alloc_;
  ukplat::Clock* clock_;
  std::deque<Thread*> ready_;
  std::vector<std::unique_ptr<Thread>> threads_;
  Thread* current_ = nullptr;
  ucontext_t sched_ctx_{};
  Stats stats_;
  std::uint64_t next_id_ = 1;
  std::size_t live_threads_ = 0;
  // Blocked threads holding a wake deadline, plus a lower bound on the
  // earliest of their deadlines. Together they keep the per-dispatch expiry
  // check O(1): the full scan only runs when a deadline can actually be due.
  std::size_t timed_waiters_ = 0;
  std::uint64_t next_deadline_hint_ = kNoDeadline;
  // TSan fiber handle for the scheduler's own context (the OS thread's
  // original stack); captured lazily on the first dispatch. Null outside
  // -fsanitize=thread builds.
  void* tsan_sched_fiber_ = nullptr;

 private:
  friend class Thread;
  friend class WaitQueue;

  struct Guard {
    explicit Guard(const Scheduler* s) : s_(s) { s_->Lock(); }
    ~Guard() { s_->Unlock(); }
    const Scheduler* s_;
  };

  // WaitQueue protocol (the queue owns waiters_; the scheduler owns the
  // locking and the dispatch bookkeeping).
  bool ParkCurrent(WaitQueue* q, const std::atomic<std::uint64_t>* seq,
                   std::uint64_t last_seen, std::uint64_t deadline_cycles);
  std::size_t WakeFromQueue(WaitQueue* q, std::size_t n);
  void DetachQueue(WaitQueue* q);
};

// Cooperative: run-to-block, never preempts (the policy the paper selects for
// Redis because it "fits well with Redis's single threaded approach").
class CoopScheduler final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  const char* name() const override { return "ukcoop"; }

 protected:
  bool ShouldPreempt(const Thread& /*t*/) const override { return false; }
};

// Preemptive: round-robin with a virtual-time quantum.
class PreemptScheduler final : public Scheduler {
 public:
  PreemptScheduler(ukalloc::Allocator* alloc, ukplat::Clock* clock,
                   std::uint64_t quantum_cycles = 360'000)  // 100us at 3.6GHz
      : Scheduler(alloc, clock), quantum_(quantum_cycles) {}
  const char* name() const override { return "ukpreempt"; }

 protected:
  bool ShouldPreempt(const Thread& t) const override;

 private:
  std::uint64_t quantum_;
};

// True when UKRAFT_THREADS=real selects the real-OS-thread backend.
bool RealThreadsRequested();
// Cooperative scheduler factory honoring UKRAFT_THREADS: the ucontext fiber
// simulator by default, the baton-passing ThreadScheduler over real pinned
// std::threads when UKRAFT_THREADS=real. Defined in thread_scheduler.cpp.
std::unique_ptr<Scheduler> MakeScheduler(ukalloc::Allocator* alloc,
                                         ukplat::Clock* clock);

}  // namespace uksched

#endif  // UKSCHED_SCHEDULER_H_
