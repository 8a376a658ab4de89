//===- core/SpiceFuture.h - Completion handle for submit() ------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpiceFuture is the completion handle returned by SpiceLoop::submit():
/// the asynchronous half of an invocation. submit() admits the invocation
/// to the runtime's Scheduler and returns immediately; the speculative
/// chunks start on the granted worker lanes as soon as the scheduler
/// hands them out, while the non-speculative chunk 0 and the ordered
/// commit chain run inside wait()/get() on the thread that drives the
/// future. A client can therefore keep several invocations -- of
/// *different* loops -- in flight and overlap their speculative work:
///
/// \code
///   auto FA = LoopA.submit(HeadA);   // lanes granted, chunks running
///   auto FB = LoopB.submit(HeadB);   // queued behind A (policy decides)
///   auto RA = FA.get();              // drives A's chunk 0 + commits
///   auto RB = FB.get();              // B's chunks overlapped A's tail
/// \endcode
///
/// Semantics:
///  * wait() drives the invocation to completion (it executes loop work
///    on the calling thread) and absorbs any exception a Traits callable
///    threw; get() = wait() + return the result or rethrow. ready() is a
///    non-blocking poll: true once the result is available so get()
///    returns without running loop work.
///  * A default-constructed or consumed future is invalid (valid() ==
///    false); get() may be called once.
///  * The destructor of a valid future drives the invocation to
///    completion and discards the result (including any exception), so
///    dropping a future never leaks leased lanes or a queued admission.
///  * Driving a future never waits for a grant. A still-queued
///    invocation starts its chunk 0 at once; if no lanes arrive before
///    chunk 0 ends it is withdrawn and finished on the driving thread,
///    so futures may be resolved in any order, and a loop body may
///    submit to and wait on its own runtime.
///
/// SpiceBatchFuture is the N-invocation sibling returned by
/// SpiceLoop::submitBatch(): one scheduler trip and one lane lease
/// amortized over N invocations executed in submission order (see the
/// class comment and docs/serving.md). A submission shed by the
/// runtime's admission control (RuntimeConfig::OverloadPolicy) resolves
/// to an OverloadError instead of a result, on both future kinds.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SPICEFUTURE_H
#define SPICE_CORE_SPICEFUTURE_H

#include "support/ErrorHandling.h"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace spice {
namespace core {

/// Thrown by SpiceFuture::get() / SpiceBatchFuture::get() when the
/// runtime's admission control shed the submission instead of executing
/// it: a queue cap hit under OverloadPolicy::Reject, or a queued request
/// that out-waited its deadline under OverloadPolicy::DeadlineDrop. A
/// serving layer catches this and maps it to its load-shedding response
/// (see docs/serving.md); SchedulerStats counts every occurrence.
class OverloadError : public std::runtime_error {
public:
  explicit OverloadError(const char *What) : std::runtime_error(What) {}
};

namespace detail {

/// The invocation state a SpiceFuture drives; implemented by
/// SpiceLoop::AsyncInvocation (one per submit()).
template <typename StateT> class FutureImpl {
public:
  virtual ~FutureImpl() = default;

  /// Drives the invocation to completion on the calling thread; absorbs
  /// exceptions into the stored outcome. Idempotent.
  virtual void wait() noexcept = 0;

  /// True once the outcome (result or exception) is stored.
  virtual bool ready() const = 0;

  /// Moves the result out, or rethrows the stored exception. Requires a
  /// completed invocation (call wait() first); consumed exactly once.
  virtual StateT take() = 0;
};

/// The invocation state a SpiceBatchFuture drives; implemented by
/// SpiceLoop::AsyncInvocation (which executes the batch's elements in
/// submission order on the driving thread).
template <typename StateT> class BatchFutureImpl {
public:
  virtual ~BatchFutureImpl() = default;

  /// Drives every element to completion on the calling thread; absorbs
  /// exceptions into the per-element outcomes. Idempotent.
  virtual void waitAll() noexcept = 0;

  /// Drives elements 0..I (inclusive) to completion; elements resolve
  /// strictly in submission order, so earlier elements complete too.
  virtual void waitUpTo(size_t I) noexcept = 0;

  /// True once every element's outcome is stored.
  virtual bool allReady() const = 0;

  /// Number of elements in the batch.
  virtual size_t count() const = 0;

  /// Moves element I's result out, or rethrows its stored exception.
  /// Requires the element completed (waitUpTo(I) first); each element
  /// is consumed exactly once.
  virtual StateT takeElement(size_t I) = 0;
};

} // namespace detail

/// Move-only completion handle for one submitted invocation; see the
/// file banner for the execution model.
template <typename StateT> class SpiceFuture {
public:
  SpiceFuture() = default;
  explicit SpiceFuture(std::unique_ptr<detail::FutureImpl<StateT>> Impl)
      : Impl(std::move(Impl)) {}

  SpiceFuture(SpiceFuture &&) = default;
  SpiceFuture &operator=(SpiceFuture &&O) {
    if (this != &O) {
      abandon();
      Impl = std::move(O.Impl);
    }
    return *this;
  }
  SpiceFuture(const SpiceFuture &) = delete;
  SpiceFuture &operator=(const SpiceFuture &) = delete;

  /// Completes the invocation (result discarded) if still owned.
  ~SpiceFuture() { abandon(); }

  /// False for a default-constructed, moved-from, or consumed handle.
  bool valid() const { return Impl != nullptr; }

  /// Non-blocking: true once get() would return without running loop
  /// work on this thread.
  bool ready() const { return Impl && Impl->ready(); }

  /// Drives the invocation to completion on this thread. Does not
  /// surface exceptions (get() does) and does not consume the handle.
  void wait() {
    if (Impl)
      Impl->wait();
  }

  /// Drives the invocation to completion and returns the merged state,
  /// or rethrows the exception a Traits callable threw. Consumes the
  /// handle (valid() becomes false); get() on an invalid handle aborts
  /// with a diagnostic.
  StateT get() {
    if (!Impl)
      reportFatalError("SpiceFuture::get() on an invalid future (default-"
                       "constructed, moved-from, or already consumed)");
    Impl->wait();
    std::unique_ptr<detail::FutureImpl<StateT>> Done = std::move(Impl);
    return Done->take();
  }

private:
  void abandon() {
    if (Impl) {
      Impl->wait();
      Impl.reset();
    }
  }

  std::unique_ptr<detail::FutureImpl<StateT>> Impl;
};

/// Move-only completion handle for one *batched* submission
/// (SpiceLoop::submitBatch): N invocations admitted through the
/// scheduler as one request, executed element-by-element in submission
/// order on the thread that drives this future. The batch shares one
/// lane lease across all elements, so the per-invocation admission cost
/// is the batch's single trip through the scheduler divided by N.
///
/// Semantics mirror SpiceFuture, element-wise:
///  * wait() drives the whole batch; get(I) drives elements 0..I (order
///    is fixed) and returns element I's state or rethrows its exception
///    -- each element may be taken once, in any order.
///  * take() drives the whole batch, consumes the handle, and returns
///    every state in submission order; if any element threw, the first
///    stored exception is rethrown (later elements still executed --
///    one element's failure does not shed the rest of the batch).
///  * The destructor of a valid handle drives the batch to completion
///    and discards all results, so dropping a batch future neither
///    leaks the lane lease nor aborts elements twice.
///  * An admission-shed batch (OverloadPolicy) stores an OverloadError
///    in *every* element: the batch was one scheduler request, so it is
///    shed as one.
template <typename StateT> class SpiceBatchFuture {
public:
  SpiceBatchFuture() = default;
  explicit SpiceBatchFuture(
      std::unique_ptr<detail::BatchFutureImpl<StateT>> Impl)
      : Impl(std::move(Impl)) {}

  SpiceBatchFuture(SpiceBatchFuture &&) = default;
  SpiceBatchFuture &operator=(SpiceBatchFuture &&O) {
    if (this != &O) {
      abandon();
      Impl = std::move(O.Impl);
    }
    return *this;
  }
  SpiceBatchFuture(const SpiceBatchFuture &) = delete;
  SpiceBatchFuture &operator=(const SpiceBatchFuture &) = delete;

  /// Completes the batch (results discarded) if still owned.
  ~SpiceBatchFuture() { abandon(); }

  /// False for a default-constructed, moved-from, or consumed handle
  /// (and for the result of submitting an empty batch).
  bool valid() const { return Impl != nullptr; }

  /// Elements in the batch (0 for an invalid handle).
  size_t size() const { return Impl ? Impl->count() : 0; }

  /// Non-blocking: true once every element's outcome is stored.
  bool ready() const { return Impl && Impl->allReady(); }

  /// Drives the whole batch to completion on this thread. Does not
  /// surface exceptions (get()/take() do) and does not consume the
  /// handle.
  void wait() {
    if (Impl)
      Impl->waitAll();
  }

  /// Drives elements 0..I to completion and returns element I's merged
  /// state, or rethrows the exception its Traits callable threw (or the
  /// OverloadError of a shed batch). Each element may be taken once;
  /// out-of-range or doubly-taken elements abort with a diagnostic.
  StateT get(size_t I) {
    if (!Impl)
      reportFatalError("SpiceBatchFuture::get() on an invalid batch "
                       "future (default-constructed, moved-from, or "
                       "already consumed)");
    if (I >= Impl->count())
      reportFatalError("SpiceBatchFuture::get() element out of range");
    Impl->waitUpTo(I);
    return Impl->takeElement(I);
  }

  /// Drives the whole batch, consumes the handle, and returns every
  /// element's state in submission order; rethrows the first stored
  /// exception if any element failed. Aborts with a diagnostic if an
  /// element was already taken via get(I).
  std::vector<StateT> take() {
    if (!Impl)
      reportFatalError("SpiceBatchFuture::take() on an invalid batch "
                       "future (default-constructed, moved-from, or "
                       "already consumed)");
    Impl->waitAll();
    std::unique_ptr<detail::BatchFutureImpl<StateT>> Done =
        std::move(Impl);
    std::vector<StateT> Out;
    Out.reserve(Done->count());
    for (size_t I = 0; I != Done->count(); ++I)
      Out.push_back(Done->takeElement(I));
    return Out;
  }

private:
  void abandon() {
    if (Impl) {
      Impl->waitAll();
      Impl.reset();
    }
  }

  std::unique_ptr<detail::BatchFutureImpl<StateT>> Impl;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SPICEFUTURE_H
