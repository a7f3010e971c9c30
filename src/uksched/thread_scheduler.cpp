#include "uksched/thread_scheduler.h"

#include <cstdlib>
#include <string_view>

namespace uksched {

ThreadScheduler::ThreadScheduler(ukalloc::Allocator* alloc, ukplat::Clock* clock,
                                 Config config)
    : Scheduler(alloc, clock),
      config_(config),
      baton_(std::make_shared<Baton>()) {}

ThreadScheduler::~ThreadScheduler() {
  {
    std::lock_guard<std::mutex> lk(baton_->mu);
    baton_->shutdown = true;
    baton_->cv.notify_all();
  }
  for (auto& [t, os] : os_threads_) {
    if (!os.joinable()) {
      continue;
    }
    if (t->state_ == ThreadState::kBlocked) {
      // Fiber parity: a blocked thread on a dying scheduler simply never
      // resumes. The OS thread waits on its own baton reference forever
      // (SwitchBack); detaching leaks nothing but the thread itself.
      os.detach();
    } else {
      // kReady (never dispatched: the shutdown flag unparks it without
      // running the entry) or kExited (unwinding right now).
      os.join();
    }
  }
}

void ThreadScheduler::Lock() const { baton_->mu.lock(); }
void ThreadScheduler::Unlock() const { baton_->mu.unlock(); }

bool ThreadScheduler::PrepareThread(Thread* t, std::size_t /*stack_size*/) {
  // Real threads bring their own OS stack; the allocator is not involved.
  // The new thread parks immediately — it runs only once dispatched.
  os_threads_.emplace(
      t, std::thread([this, t, baton = baton_] { ThreadMain(t, baton); }));
  return true;
}

void ThreadScheduler::ThreadMain(Thread* t, std::shared_ptr<Baton> baton) {
  {
    std::unique_lock<std::mutex> lk(baton->mu);
    baton->cv.wait(lk, [&] { return baton->running == t || baton->shutdown; });
    if (baton->shutdown && baton->running != t) {
      return;  // scheduler died before this thread ever ran
    }
  }
  t->entry_();
  Exit();
}

void ThreadScheduler::SwitchTo(Thread* t) {
  // Called from Run() with the lock held: hand the baton to |t| and sleep
  // until it comes back (yield, block or exit). The lock is released inside
  // the wait and held again on return, which is what gives every dispatcher
  // <-> thread transition its acquire/release edge.
  idle_strikes_ = 0;
  std::unique_lock<std::mutex> lk(baton_->mu, std::adopt_lock);
  baton_->running = t;
  baton_->cv.notify_all();
  baton_->cv.wait(lk, [&] { return baton_->running == nullptr; });
  lk.release();
}

void ThreadScheduler::SwitchBack() {
  // Called from a running thread with the lock held: return the baton and —
  // unless this thread is exiting — sleep until dispatched again. A thread
  // still parked here when the scheduler dies is detached, so the wait must
  // not touch |this|: it holds its own baton reference and compares |t| by
  // pointer only.
  Thread* t = current_;
  std::shared_ptr<Baton> baton = baton_;
  std::unique_lock<std::mutex> lk(baton->mu, std::adopt_lock);
  baton->running = nullptr;
  baton->cv.notify_all();
  if (t->state_ != ThreadState::kExited) {
    baton->cv.wait(lk, [&] { return baton->running == t; });
  }
  lk.release();
}

void ThreadScheduler::ReleaseThread(Thread* t) {
  auto it = os_threads_.find(t);
  if (it == os_threads_.end()) {
    return;
  }
  // The thread already returned the baton (Exit path) and needs no lock to
  // finish unwinding, so joining under the scheduler lock cannot deadlock.
  if (it->second.joinable()) {
    it->second.join();
  }
  os_threads_.erase(it);
}

void ThreadScheduler::Enqueue(Thread* t) {
  Scheduler::Enqueue(t);
  // An external Wake (foreign OS thread) may race an idle dispatcher parked
  // in IdleWait: poke the condvar so it rechecks the ready queue.
  baton_->cv.notify_all();
}

bool ThreadScheduler::IdleWait() {
  if (live_threads_ == 0) {
    return false;
  }
  // Park in REAL time before advancing the VIRTUAL clock: an external
  // producer's doorbell (Wake from a foreign OS thread) should end an idle
  // period the way a device interrupt ends a HLT — jumping straight to a
  // timed waiter's deadline would manufacture timeouts the workload does not
  // have. Managed-thread-only worlds lose nothing but idle_grace of real time
  // per advance.
  std::unique_lock<std::mutex> lk(baton_->mu, std::adopt_lock);
  baton_->cv.wait_for(lk, config_.idle_grace, [&] { return !ready_.empty(); });
  lk.release();
  if (!ready_.empty()) {
    idle_strikes_ = 0;
    return true;
  }
  if (timed_waiters_ > 0) {
    return false;  // let the virtual clock jump to the earliest deadline
  }
  // Only untimed waiters remain: keep a bounded real-time window open for
  // external producers, then report the world stuck (fiber parity).
  return ++idle_strikes_ <= config_.idle_strike_limit;
}

// ---- factory -----------------------------------------------------------------------

bool RealThreadsRequested() {
  const char* v = std::getenv("UKRAFT_THREADS");
  return v != nullptr && std::string_view(v) == "real";
}

std::unique_ptr<Scheduler> MakeScheduler(ukalloc::Allocator* alloc,
                                         ukplat::Clock* clock) {
  if (RealThreadsRequested()) {
    return std::make_unique<ThreadScheduler>(alloc, clock);
  }
  return std::make_unique<CoopScheduler>(alloc, clock);
}

}  // namespace uksched
