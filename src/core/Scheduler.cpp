//===- core/Scheduler.cpp - Cross-loop lane admission scheduler -----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

using namespace spice;
using namespace spice::core;

Scheduler::~Scheduler() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Queue.empty())
    reportFatalError("destroying a Scheduler with invocations still "
                     "queued; resolve every SpiceFuture before tearing "
                     "down the runtime");
}

bool Scheduler::overCapLocked(const Request &R) const {
  if (RuntimeCap && QueuedInvs + R.Invocations > RuntimeCap)
    return true;
  if (R.LoopCap && R.LoopTag) {
    auto It = LoopQueued.find(R.LoopTag);
    uint64_t Cur = It == LoopQueued.end() ? 0 : It->second;
    if (Cur + R.Invocations > R.LoopCap)
      return true;
  }
  return false;
}

void Scheduler::noteRemovedLocked(const Entry &E) {
  assert(QueuedInvs >= E.R.Invocations && "queue accounting out of sync");
  QueuedInvs -= std::min<uint64_t>(QueuedInvs, E.R.Invocations);
  if (E.R.LoopTag) {
    auto It = LoopQueued.find(E.R.LoopTag);
    assert(It != LoopQueued.end() && It->second >= E.R.Invocations &&
           "per-loop queue accounting out of sync");
    if (It != LoopQueued.end()) {
      It->second -= std::min<uint64_t>(It->second, E.R.Invocations);
      if (It->second == 0)
        LoopQueued.erase(It);
    }
  }
}

namespace {
uint64_t microsBetween(Scheduler::Clock::time_point From,
                       Scheduler::Clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(To - From)
          .count());
}
} // namespace

uint64_t Scheduler::noteGrantedLocked(const Entry &E, unsigned Lanes,
                                      Clock::time_point Now) {
  if (E.Immediate)
    ++St.ImmediateGrants;
  else
    ++St.DeferredGrants;
  if (Policy == LanePolicy::Adaptive)
    ++St.AdaptiveGrants;
  if (Lanes > 0 && Lanes < E.R.RequestedLanes)
    ++St.CappedGrants;
  const uint64_t Waited =
      E.Immediate ? 0 : microsBetween(E.Enqueued, E.Claimed.value_or(Now));
  St.TotalQueuedMicros += Waited;
  noteRemovedLocked(E);
  return Waited;
}

std::deque<Scheduler::Entry>::iterator Scheduler::findLocked(uint64_t Ticket) {
  return std::find_if(Queue.begin(), Queue.end(),
                      [Ticket](const Entry &E) { return E.Ticket == Ticket; });
}

void Scheduler::sweepExpiredLocked(
    Clock::time_point Now, std::vector<std::function<void()>> &Drops) {
  for (size_t I = 0; I != Queue.size();) {
    Entry &E = Queue[I];
    // Immediate entries are exempt: the submission that enqueued them is
    // still inside its own grant pass, which must get first shot even at
    // a zero deadline. Claimed entries are exempt too: their chunk 0 is
    // already running.
    bool Expired = !E.Immediate && !E.Claimed && E.R.DeadlineMicros > 0 &&
                   microsBetween(E.Enqueued, Now) >= E.R.DeadlineMicros;
    if (!Expired) {
      ++I;
      continue;
    }
    ++St.DroppedDeadline;
    noteRemovedLocked(E);
    if (E.R.OnDrop)
      Drops.push_back(std::move(E.R.OnDrop));
    Queue.erase(Queue.begin() + static_cast<std::ptrdiff_t>(I));
  }
}

uint64_t Scheduler::submit(Request R) {
  assert(R.RequestedLanes >= 1 && "a lane request needs at least one lane");
  assert(R.OnGrant && "a lane request needs a grant callback");
  assert(R.Invocations >= 1 && "a request admits at least one invocation");
  uint64_t Ticket;
  std::vector<std::function<void()>> Drops;
  {
    std::unique_lock<std::mutex> Lock(M);
    if (overCapLocked(R)) {
      switch (Overload) {
      case OverloadPolicy::Block:
        // Self-deadlock diagnostic: room is only made by grants, grants
        // need lanes, and every lane is leased to this thread's own
        // (parked) stack.
        if (Pool.callerHoldsEntirePool())
          reportFatalError(
              "Scheduler::submit would deadlock waiting for queue "
              "room: this thread's sessions lease every worker of the "
              "pool, so the grants that would drain the queue can "
              "never happen (resolve earlier futures before submitting "
              "past the cap)");
        CapCV.wait(Lock, [&] { return !overCapLocked(R); });
        break;
      case OverloadPolicy::DeadlineDrop:
        // Expired entries make room first; what remains decides.
        sweepExpiredLocked(Clock::now(), Drops);
        if (!overCapLocked(R))
          break;
        [[fallthrough]];
      case OverloadPolicy::Reject:
        ++St.RejectedSubmissions;
        Lock.unlock();
        for (auto &D : Drops)
          D();
        return 0;
      }
    }
    Ticket = NextTicket++;
    QueuedInvs += R.Invocations;
    if (R.LoopTag)
      LoopQueued[R.LoopTag] += R.Invocations;
    St.HighWaterQueueDepth =
        std::max<uint64_t>(St.HighWaterQueueDepth, QueuedInvs);
    ++St.Submitted;
    Queue.push_back(Entry{std::move(R), Clock::now(), Ticket,
                          /*Immediate=*/true, /*Claimed=*/std::nullopt});
  }
  for (auto &D : Drops)
    D();
  runGrants();
  // If our own pass did not grant this request, it now waits for a
  // deferred grant and accumulates real queue time from Enqueued on.
  // Only this entry is downgraded: a concurrent submitter's entry stays
  // Immediate until *its* submit() finishes its own pass, keeping the
  // ImmediateGrants / QueuedMicros==0 definition exact per request.
  std::lock_guard<std::mutex> Lock(M);
  if (auto It = findLocked(Ticket); It != Queue.end())
    It->Immediate = false;
  return Ticket;
}

bool Scheduler::claim(uint64_t Ticket) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = findLocked(Ticket);
  if (It == Queue.end())
    return false;
  It->Claimed = Clock::now();
  return true;
}

std::optional<uint64_t> Scheduler::withdraw(uint64_t Ticket) {
  uint64_t Waited;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = findLocked(Ticket);
    if (It == Queue.end())
      return std::nullopt;
    ++St.InlineGrants;
    Waited = noteGrantedLocked(*It, /*Lanes=*/0, Clock::now());
    Queue.erase(It);
  }
  // The removal made room below the caps.
  CapCV.notify_all();
  return Waited;
}

void Scheduler::onLanesFreed() { runGrants(); }

void Scheduler::noteThroughput(const void *LoopTag, uint64_t Iterations,
                               unsigned Lanes, uint64_t Micros) {
  if (!LoopTag || Lanes == 0 || Micros == 0)
    return;
  const double Sample = static_cast<double>(Iterations) /
                        (static_cast<double>(Lanes) *
                         static_cast<double>(Micros));
  std::lock_guard<std::mutex> Lock(M);
  ++St.ThroughputSamples;
  auto It = LaneRates.find(LoopTag);
  if (It == LaneRates.end()) {
    LaneRates.emplace(LoopTag, Sample);
    return;
  }
  // EWMA with a fixed smoothing factor: heavy enough to track phase
  // changes within a few invocations, light enough to ride out one
  // noisy sample.
  constexpr double Alpha = 0.3;
  It->second = Alpha * Sample + (1.0 - Alpha) * It->second;
}

double Scheduler::laneRate(const void *LoopTag) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = LaneRates.find(LoopTag);
  return It == LaneRates.end() ? -1.0 : It->second;
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}

unsigned Scheduler::queueDepth() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<unsigned>(Queue.size());
}

uint64_t Scheduler::queuedInvocations() const {
  std::lock_guard<std::mutex> Lock(M);
  return QueuedInvs;
}

std::vector<Scheduler::Grant>
Scheduler::planGrants(const std::vector<Candidate> &Pending,
                      unsigned FreeLanes, LanePolicy Policy,
                      uint64_t AgingStepMicros,
                      const std::vector<unsigned> *NodeFreeLanes) {
  std::vector<Grant> Plan;
  if (FreeLanes == 0 || Pending.empty())
    return Plan;

  // FirstCome and Priority share the greedy core: walk an order, hand
  // each request everything it asked for while lanes remain.
  auto GreedyInOrder = [&](const std::vector<size_t> &Order) {
    unsigned Free = FreeLanes;
    for (size_t I : Order) {
      if (Free == 0)
        break;
      unsigned Lanes = std::min(Free, Pending[I].RequestedLanes);
      Plan.push_back(Grant{I, Lanes});
      Free -= Lanes;
    }
  };

  // FairShare and Adaptive share the proportional core: cap_i ~
  // FreeLanes * w_i / sum(w), clamped to [1, req_i]. Overshoot (the
  // floors of many small requests) is trimmed from the back of the
  // admission queue -- latest submissions stay queued when there are
  // more requests than lanes; undershoot (rounding) is handed back one
  // lane at a time in admission order.
  auto ProportionalSplit = [&](const std::vector<double> &Weights) {
    double SumW = 0.0;
    for (double W : Weights)
      SumW += W;
    std::vector<unsigned> Caps(Pending.size());
    uint64_t Total = 0;
    for (size_t I = 0; I != Pending.size(); ++I) {
      uint64_t Share =
          SumW > 0.0 ? static_cast<uint64_t>(
                           static_cast<double>(FreeLanes) * Weights[I] / SumW)
                     : 0;
      Caps[I] = static_cast<unsigned>(std::clamp<uint64_t>(
          Share, 1, Pending[I].RequestedLanes));
      Total += Caps[I];
    }
    for (size_t I = Pending.size(); Total > FreeLanes && I-- > 0;) {
      uint64_t Excess = Total - FreeLanes;
      unsigned Keep = Caps[I] > Excess
                          ? Caps[I] - static_cast<unsigned>(Excess)
                          : 0;
      Total -= Caps[I] - Keep;
      Caps[I] = Keep;
    }
    bool Progress = true;
    while (Total < FreeLanes && Progress) {
      Progress = false;
      for (size_t I = 0; I != Pending.size() && Total < FreeLanes; ++I) {
        if (Caps[I] != 0 && Caps[I] < Pending[I].RequestedLanes) {
          ++Caps[I];
          ++Total;
          Progress = true;
        }
      }
    }
    for (size_t I = 0; I != Pending.size(); ++I)
      if (Caps[I] != 0)
        Plan.push_back(Grant{I, Caps[I]});
  };

  switch (Policy) {
  case LanePolicy::FirstCome: {
    std::vector<size_t> Order(Pending.size());
    std::iota(Order.begin(), Order.end(), size_t{0});
    GreedyInOrder(Order);
    break;
  }
  case LanePolicy::Priority: {
    // Effective priority = static priority + one step per
    // AgingStepMicros spent queued; ties resolve in admission order
    // (stable sort over the admission-ordered input).
    auto Effective = [&](const Candidate &C) {
      int64_t Aged = AgingStepMicros
                         ? static_cast<int64_t>(C.QueuedMicros /
                                                AgingStepMicros)
                         : 0;
      return static_cast<int64_t>(C.Priority) + Aged;
    };
    std::vector<size_t> Order(Pending.size());
    std::iota(Order.begin(), Order.end(), size_t{0});
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Effective(Pending[A]) > Effective(Pending[B]);
    });
    GreedyInOrder(Order);
    break;
  }
  case LanePolicy::FairShare: {
    // Proportional split with a floor of one lane: cap_i ~ FreeLanes *
    // req_i / sum(req), clamped to [1, req_i].
    std::vector<double> Weights(Pending.size());
    for (size_t I = 0; I != Pending.size(); ++I)
      Weights[I] = Pending[I].RequestedLanes;
    ProportionalSplit(Weights);
    break;
  }
  case LanePolicy::Adaptive: {
    // Same proportional machinery, but weighted by each loop's observed
    // marginal throughput (Candidate::LaneRate, the noteThroughput
    // EWMA): lanes concentrate where they commit the most iterations per
    // lane-microsecond. A loop with no sample yet takes the mean of the
    // known rates -- neutral until it proves itself either way -- and
    // when nobody has a sample the split degrades to FairShare's
    // request-proportional one.
    double KnownSum = 0.0;
    size_t Known = 0;
    for (const Candidate &C : Pending)
      if (C.LaneRate > 0.0) {
        KnownSum += C.LaneRate;
        ++Known;
      }
    if (Known == 0) {
      std::vector<double> Weights(Pending.size());
      for (size_t I = 0; I != Pending.size(); ++I)
        Weights[I] = Pending[I].RequestedLanes;
      ProportionalSplit(Weights);
      break;
    }
    const double Mean = KnownSum / static_cast<double>(Known);
    std::vector<double> Weights(Pending.size());
    for (size_t I = 0; I != Pending.size(); ++I)
      Weights[I] = Pending[I].LaneRate > 0.0 ? Pending[I].LaneRate : Mean;
    ProportionalSplit(Weights);
    break;
  }
  }

  // Node-packing post-pass (multi-node placement only): pick each
  // grant's home node so its lanes come from one node where possible.
  // Policy (who gets how many lanes) stays exactly as planned above;
  // only the trim-to-node rule may shrink a grant, and the lanes it
  // frees are re-offered to still-queued candidates below.
  if (NodeFreeLanes && NodeFreeLanes->size() > 1) {
    std::vector<unsigned> Free = *NodeFreeLanes;
    auto Largest = [&Free] {
      unsigned Big = 0;
      for (unsigned N = 1; N != Free.size(); ++N)
        if (Free[N] > Free[Big])
          Big = N;
      return Big;
    };
    for (Grant &G : Plan) {
      // Best fit: the smallest block covering the grant (ties to the
      // lower node id) leaves bigger blocks intact for wider grants.
      int Best = -1;
      for (unsigned N = 0; N != Free.size(); ++N)
        if (Free[N] >= G.Lanes &&
            (Best < 0 || Free[N] < Free[static_cast<unsigned>(Best)]))
          Best = static_cast<int>(N);
      if (Best >= 0) {
        G.Node = Best;
        Free[static_cast<unsigned>(Best)] -= G.Lanes;
        continue;
      }
      unsigned Big = Largest();
      if (Free[Big] > 0 && 2 * Free[Big] >= G.Lanes) {
        // Trim to the largest block: one-node locality beats raw lane
        // count when the block covers at least half the grant.
        G.Lanes = Free[Big];
        G.Node = static_cast<int>(Big);
        Free[Big] = 0;
        continue;
      }
      // The grant must span nodes; start it at the largest block and
      // account the spill against the next-largest blocks, mirroring
      // the pool's lease spill-over.
      G.Node = Free[Big] > 0 ? static_cast<int>(Big) : -1;
      unsigned Left = G.Lanes;
      while (Left > 0) {
        unsigned B = Largest();
        if (Free[B] == 0)
          break;
        unsigned Take = std::min(Free[B], Left);
        Free[B] -= Take;
        Left -= Take;
      }
    }
    // Trimmed lanes are real capacity: offer one node block each to the
    // candidates the policy pass left queued, in admission order.
    std::vector<bool> InPlan(Pending.size(), false);
    for (const Grant &G : Plan)
      InPlan[G.Index] = true;
    for (size_t I = 0; I != Pending.size(); ++I) {
      if (InPlan[I])
        continue;
      unsigned Big = Largest();
      if (Free[Big] == 0)
        break;
      unsigned Lanes = std::min(Pending[I].RequestedLanes, Free[Big]);
      Plan.push_back(Grant{I, Lanes, static_cast<int>(Big)});
      Free[Big] -= Lanes;
    }
  }
  return Plan;
}

void Scheduler::runGrants() {
  struct Action {
    Entry E;
    WorkerPool::SessionHandle Session;
    uint64_t QueuedMicros;
  };
  // The sole-candidate fast path fills Solo; only the contended
  // multi-candidate path pays for the planning vectors below.
  std::optional<Action> Solo;
  std::vector<Action> Actions;
  std::vector<std::function<void()>> Drops;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Queue.empty())
      return;
    Clock::time_point Now = Clock::now();
    // Expired entries leave before planning: a request past its deadline
    // is shed even when lanes just became free for it.
    if (Overload == OverloadPolicy::DeadlineDrop)
      sweepExpiredLocked(Now, Drops);
    if (Queue.size() == 1) {
      // Fast path: with a single queued request, every LanePolicy grants
      // it min(free lanes, requested) -- greedy, proportional, and
      // priority orders are all trivial -- so skip planGrants and its
      // per-pass Pending/Plan/Granted vectors. tryAcquireSessionFor
      // itself returns null when no lane is free. This is the shape of
      // every uncontended submit() and of the serving steady state.
      Entry &E = Queue.front();
      WorkerPool::SessionHandle S = Pool.tryAcquireSessionFor(
          E.R.RequestedLanes, E.R.AllowStealing, E.R.Owner);
      if (S) {
        uint64_t Waited = noteGrantedLocked(E, S->lanes(), Now);
        Solo.emplace(Action{std::move(E), std::move(S), Waited});
        Queue.pop_front();
      }
    } else if (!Queue.empty()) {
      // One snapshot drives both the lane total and the node-packing
      // post-pass, so the plan can never see more (or differently
      // distributed) lanes than the nodes it packs onto.
      unsigned Free;
      const std::vector<unsigned> *NodeFree = nullptr;
      if (Pool.localityActive()) {
        Pool.freeWorkersByNode(NodeFreeScratch);
        Free = 0;
        for (unsigned N : NodeFreeScratch)
          Free += N;
        NodeFree = &NodeFreeScratch;
      } else {
        Free = Pool.freeWorkers();
      }
      if (Free > 0) {
        std::vector<Candidate> Pending;
        Pending.reserve(Queue.size());
        for (const Entry &E : Queue) {
          uint64_t Waited = E.Immediate ? 0 : microsBetween(E.Enqueued, Now);
          double Rate = -1.0;
          if (Policy == LanePolicy::Adaptive && E.R.LoopTag) {
            auto It = LaneRates.find(E.R.LoopTag);
            if (It != LaneRates.end())
              Rate = It->second;
          }
          Pending.push_back(
              Candidate{E.R.RequestedLanes, E.R.Priority, Waited, Rate});
        }
        std::vector<Grant> Plan =
            planGrants(Pending, Free, Policy, AgingStepMicros, NodeFree);
        std::vector<size_t> Granted;
        for (const Grant &G : Plan) {
          Entry &E = Queue[G.Index];
          WorkerPool::SessionHandle S = Pool.tryAcquireSessionFor(
              G.Lanes, E.R.AllowStealing, E.R.Owner, G.Node);
          if (!S)
            break; // Raced with a blocking acquirer; retry on next release.
          uint64_t Waited = noteGrantedLocked(E, S->lanes(), Now);
          Actions.push_back(Action{std::move(E), std::move(S), Waited});
          Granted.push_back(G.Index);
        }
        std::sort(Granted.begin(), Granted.end());
        for (size_t I = Granted.size(); I-- > 0;)
          Queue.erase(Queue.begin() +
                      static_cast<std::ptrdiff_t>(Granted[I]));
      }
    }
  }
  // Every removal makes room below the caps: wake parked Block
  // submitters before running the callbacks.
  if (Solo || !Actions.empty() || !Drops.empty())
    CapCV.notify_all();
  for (auto &D : Drops)
    D();
  // Callbacks run with no scheduler or pool lock held: they push chunks
  // and launch the leased lanes, which take pool-side locks of their own.
  if (Solo)
    Solo->E.R.OnGrant(std::move(Solo->Session), Solo->QueuedMicros);
  for (Action &A : Actions)
    A.E.R.OnGrant(std::move(A.Session), A.QueuedMicros);
}
