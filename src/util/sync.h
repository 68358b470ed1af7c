// Synchronization primitives with Clang Thread Safety Analysis teeth.
//
// The serving stack's headline guarantee — budget-mode estimates that are
// bit-identical across pool sizes and concurrent serves — rests on a
// locking discipline: every scheduler field has exactly one guarding
// mutex, and every helper that touches it documents which lock it expects
// held. TSan checks that discipline *dynamically*, on the interleavings a
// test happens to hit; this header makes it *static*. Under clang,
// `scripts/lint.sh` builds the tree with `-Wthread-safety
// -Wthread-safety-beta` promoted to errors, so a field read outside its
// guard — today's bug or a future PR's — fails to compile. Under other
// compilers every annotation expands to nothing and the wrappers are
// zero-cost veneers over the std primitives.
//
// The annotation macros mirror the capability attribute set documented in
// clang's ThreadSafetyAnalysis manual (and battle-tested in abseil's
// thread_annotations.h):
//
//   KGOA_GUARDED_BY(mu)      field: reads/writes require `mu` held
//   KGOA_PT_GUARDED_BY(mu)   pointer field: the pointee requires `mu`
//   KGOA_REQUIRES(mu...)     function: caller must hold `mu` on entry
//   KGOA_ACQUIRE(mu...)      function: acquires `mu`, holds it on return
//   KGOA_RELEASE(mu...)      function: releases `mu`
//   KGOA_TRY_ACQUIRE(b, mu)  function: acquires `mu` iff it returns `b`
//   KGOA_EXCLUDES(mu...)     function: caller must NOT hold `mu`
//   KGOA_CAPABILITY(name)    class: instances are lockable capabilities
//   KGOA_SCOPED_CAPABILITY   class: RAII guard (acquire in ctor, release
//                            in dtor)
//   KGOA_ACQUIRED_BEFORE / KGOA_ACQUIRED_AFTER
//                            mutex member: documents lock ordering
//   KGOA_ASSERT_CAPABILITY(mu)
//                            function: runtime-asserts `mu` held
//   KGOA_RETURN_CAPABILITY(mu)
//                            function: returns a reference to `mu`
//   KGOA_NO_THREAD_SAFETY_ANALYSIS
//                            function/lambda: opt out (for code the
//                            analysis cannot model — condition-variable
//                            predicates, which run with the lock held but
//                            in a lambda the analysis treats as a fresh
//                            context)
//
// kgoa::Mutex, kgoa::MutexLock and kgoa::CondVar below are the ONLY legal
// lock types outside src/util/ — the `raw-mutex` rule in
// scripts/kgoa_lint.py bans std::mutex / std::lock_guard /
// std::unique_lock / std::condition_variable everywhere else, because the
// std types carry no capability attributes and silently disable the
// analysis for whatever they guard.
//
// CondVar deliberately offers ONLY predicate waits (Wait(mu, pred),
// WaitFor(mu, d, pred)): a predicate-less wait invites the classic
// spurious-wakeup bug (also flagged by clang-tidy's
// bugprone-spuriously-wake-up-functions and the `cv-wait-predicate` lint
// rule). The predicate runs with the mutex held; annotate predicate
// lambdas that read guarded state with KGOA_NO_THREAD_SAFETY_ANALYSIS.
#ifndef KGOA_UTIL_SYNC_H_
#define KGOA_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/util/contract.h"

// ---------------------------------------------------------------------------
// Annotation macros (no-ops outside clang)
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define KGOA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define KGOA_THREAD_ANNOTATION(x)  // no-op: gcc/msvc have no TSA
#endif

#define KGOA_CAPABILITY(x) KGOA_THREAD_ANNOTATION(capability(x))
#define KGOA_SCOPED_CAPABILITY KGOA_THREAD_ANNOTATION(scoped_lockable)
#define KGOA_GUARDED_BY(x) KGOA_THREAD_ANNOTATION(guarded_by(x))
#define KGOA_PT_GUARDED_BY(x) KGOA_THREAD_ANNOTATION(pt_guarded_by(x))
#define KGOA_ACQUIRED_BEFORE(...) \
  KGOA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define KGOA_ACQUIRED_AFTER(...) \
  KGOA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define KGOA_REQUIRES(...) \
  KGOA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define KGOA_REQUIRES_SHARED(...) \
  KGOA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define KGOA_ACQUIRE(...) \
  KGOA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define KGOA_ACQUIRE_SHARED(...) \
  KGOA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define KGOA_RELEASE(...) \
  KGOA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define KGOA_RELEASE_SHARED(...) \
  KGOA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define KGOA_TRY_ACQUIRE(...) \
  KGOA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define KGOA_TRY_ACQUIRE_SHARED(...) \
  KGOA_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define KGOA_EXCLUDES(...) KGOA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define KGOA_ASSERT_CAPABILITY(x) \
  KGOA_THREAD_ANNOTATION(assert_capability(x))
#define KGOA_RETURN_CAPABILITY(x) KGOA_THREAD_ANNOTATION(lock_returned(x))
#define KGOA_NO_THREAD_SAFETY_ANALYSIS \
  KGOA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace kgoa {

class CondVar;

// Tag type selecting MutexLock's adopt constructor (the lock is already
// held — typically after a successful Mutex::TryLock()).
struct AdoptLockT {
  explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT kAdoptLock{};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

// An annotated exclusive mutex. Prefer scoped MutexLock; call
// Lock/Unlock/TryLock directly only for patterns a scope cannot express
// (e.g. the try-then-lock contention counter in ShardedFlatTable::Insert).
class KGOA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KGOA_ACQUIRE() { mu_.lock(); }
  void Unlock() KGOA_RELEASE() { mu_.unlock(); }
  // Returns true iff the lock was acquired. The analysis tracks the
  // capability along the `true` branch:
  //   if (!mu.TryLock()) return;
  //   MutexLock lock(mu, kAdoptLock);
  bool TryLock() KGOA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// MutexLock
// ---------------------------------------------------------------------------

// RAII guard over a Mutex. Supports mid-scope Unlock()/Lock() for code
// that drops the lock around a long computation (the serving core's
// worker loop releases it around each walk quantum); the destructor
// releases only if currently held.
class KGOA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KGOA_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }

  // Adopts a mutex the caller already holds (e.g. via TryLock); the guard
  // releases it at scope exit.
  MutexLock(Mutex& mu, AdoptLockT) KGOA_REQUIRES(mu)
      : mu_(mu), held_(true) {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() KGOA_RELEASE() {
    if (held_) mu_.Unlock();
  }

  // Mid-scope release; the destructor then does nothing unless Lock() is
  // called again.
  void Unlock() KGOA_RELEASE() {
    KGOA_DCHECK(held_);
    held_ = false;
    mu_.Unlock();
  }

  void Lock() KGOA_ACQUIRE() {
    KGOA_DCHECK(!held_);
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

// Condition variable bound to kgoa::Mutex. Predicate overloads only (see
// file comment): the wait loops internally until `pred()` holds, so
// spurious wakeups cannot leak a false wake to the caller. The caller
// must hold `mu`; the wait releases it while blocking and reacquires it
// before evaluating the predicate and before returning (the analysis
// models the whole call as "requires mu", which is the caller-visible
// contract).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until pred() is true. pred runs with `mu` held.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) KGOA_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    // The caller still owns the mutex: hand it back without unlocking.
    native.release();
  }

  // Blocks until pred() is true or `timeout` elapses; returns pred()'s
  // final value (false = timed out with the predicate still false).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
               Predicate pred) KGOA_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(native, timeout, std::move(pred));
    native.release();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace kgoa

#endif  // KGOA_UTIL_SYNC_H_
