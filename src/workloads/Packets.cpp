//===- workloads/Packets.cpp - Packet-processing flow pipeline ------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Packets.h"

#include <algorithm>
#include <cassert>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// FlowTable
//===----------------------------------------------------------------------===//

FlowTable::FlowTable(size_t NumFlows, size_t NumBuckets, uint64_t Seed)
    : Buckets(NumBuckets, nullptr) {
  assert(NumFlows >= 1 && NumBuckets >= 1 && "empty table");
  RandomEngine Rng(Seed);
  Flows.reserve(NumFlows);
  Keys.reserve(NumFlows);
  while (Flows.size() != NumFlows) {
    uint64_t Key = Rng.next();
    if (Key == 0 || lookup(Key))
      continue; // Zero is reserved; keys must be unique.
    Flows.push_back(FlowEntry{Key, nullptr, 0, 0, 0});
    Keys.push_back(Key);
    FlowEntry &F = Flows.back();
    size_t B = bucketOf(Key);
    F.NextInBucket = Buckets[B];
    Buckets[B] = &F;
  }
}

size_t FlowTable::bucketOf(uint64_t Key) const {
  // Fibonacci hashing: the keys are already random, but a trace could
  // be adversarial in a real pipeline.
  return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> 32) %
         Buckets.size();
}

FlowEntry *FlowTable::lookup(uint64_t Key) {
  for (FlowEntry *F = Buckets[bucketOf(Key)]; F; F = F->NextInBucket)
    if (F->Key == Key)
      return F;
  return nullptr;
}

size_t FlowTable::maxChainLength() const {
  size_t Max = 0;
  for (const FlowEntry *Head : Buckets) {
    size_t N = 0;
    for (const FlowEntry *F = Head; F; F = F->NextInBucket)
      ++N;
    Max = std::max(Max, N);
  }
  return Max;
}

uint64_t FlowTable::checksum() const {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ULL;
  };
  for (const FlowEntry &F : Flows) {
    Mix(F.Key);
    Mix(static_cast<uint64_t>(F.Packets));
    Mix(static_cast<uint64_t>(F.Bytes));
    Mix(static_cast<uint64_t>(F.State));
  }
  return H;
}

bool FlowTable::countersEqual(const FlowTable &Other) const {
  if (Flows.size() != Other.Flows.size())
    return false;
  for (size_t I = 0; I != Flows.size(); ++I) {
    const FlowEntry &A = Flows[I], &B = Other.Flows[I];
    if (A.Key != B.Key || A.Packets != B.Packets || A.Bytes != B.Bytes ||
        A.State != B.State)
      return false;
  }
  return true;
}

void FlowTable::resetCounters() {
  for (FlowEntry &F : Flows) {
    F.Packets = 0;
    F.Bytes = 0;
    F.State = 0;
  }
}

//===----------------------------------------------------------------------===//
// PacketPipeline
//===----------------------------------------------------------------------===//

PacketPipeline::PacketPipeline(size_t NumFlows, size_t NumBuckets,
                               size_t MaxTrace, uint64_t Seed)
    : Table(NumFlows, NumBuckets, Seed), Rng(Seed ^ 0x9e3779b97f4a7c15ULL),
      Trace(MaxTrace) {
  assert(MaxTrace >= 1 && "empty trace arena");
  TraceEnd = Trace.data();
}

size_t PacketPipeline::generateTrace(size_t NumPackets, double BurstProb,
                                     unsigned BurstLen, double HotProb) {
  const std::vector<uint64_t> &Keys = Table.keys();
  TraceLen = std::min(NumPackets, Trace.size());
  // Temporal locality: the flow window slides with the trace position,
  // so different chunks of one invocation touch mostly disjoint flows.
  const size_t Window = std::max<size_t>(Keys.size() / 8, 1);
  const size_t HotFlows = std::min<size_t>(4, Keys.size());
  size_t I = 0;
  while (I != TraceLen) {
    size_t Flow;
    if (Rng.nextBool(HotProb)) {
      // Global heavy hitter: shared by every chunk of the trace.
      Flow = Rng.nextBelow(HotFlows);
    } else {
      size_t Base = Keys.size() * I / std::max<size_t>(TraceLen, 1);
      Flow = (Base + Rng.nextBelow(Window)) % Keys.size();
    }
    size_t Run = 1;
    if (Rng.nextBool(BurstProb))
      Run = 1 + Rng.nextBelow(std::max(BurstLen, 1u));
    for (size_t J = 0; J != Run && I != TraceLen; ++J, ++I) {
      Packet &P = Trace[I];
      P.FlowKey = Keys[Flow];
      P.Length = 64 + static_cast<uint32_t>(Rng.nextBelow(1436));
      P.Flags = 0;
      uint64_t F = Rng.nextBelow(10);
      if (F == 0)
        P.Flags = PacketSyn;
      else if (F == 1)
        P.Flags = PacketFin;
    }
  }
  TraceEnd = Trace.data() + TraceLen;
  return TraceLen;
}

void PacketPipeline::applyPacket(const Packet &P, FlowEntry *F,
                                 PacketState &S, SpecSpace &Mem) {
  if (!F)
    return; // Untracked flow: a real pipeline would punt to slow path.
  // Per-flow counters: commutative updates nobody reads back, so a
  // speculative chunk buffers deltas and a predecessor bumping the same
  // flow does not squash it. Only the state machine below is validated.
  Mem.add(&F->Packets, int64_t{1});
  Mem.add(&F->Bytes, static_cast<int64_t>(P.Length));
  S.Packets += 1;
  S.Bytes += P.Length;
  // Connection tracking: new --SYN--> established --FIN--> closed.
  int64_t St = Mem.read(&F->State);
  if ((P.Flags & PacketSyn) && St == 0) {
    Mem.write(&F->State, int64_t{1});
    S.Opened += 1;
  } else if ((P.Flags & PacketFin) && St == 1) {
    Mem.write(&F->State, int64_t{2});
    S.Closed += 1;
  }
}

PacketPipeline::Loop PacketPipeline::makeLoop(SpiceRuntime &Runtime,
                                              LoopOptions Opts) {
  // Per-flow counters are shared read-modify-write state: commit-time
  // value validation is mandatory for serial equivalence.
  Opts.EnableConflictDetection = true;
  return spice::LoopBuilder<const Packet *, PacketState>()
      .step([this](const Packet *&P, PacketState &S, SpecSpace &Mem) {
        // A stale cursor memoized on a longer past trace lands past the
        // current end: exit (>= handles any stale position in one
        // check; the cursor only ever advances).
        if (P >= TraceEnd)
          return false;
        applyPacket(*P, Table.lookup(P->FlowKey), S, Mem);
        ++P;
        return true;
      })
      .combine([](PacketState &Into, PacketState &&Chunk) {
        Into.Packets += Chunk.Packets;
        Into.Bytes += Chunk.Bytes;
        Into.Opened += Chunk.Opened;
        Into.Closed += Chunk.Closed;
      })
      .options(Opts)
      .build(Runtime);
}

PacketState PacketPipeline::processTraceReference() {
  PacketState S;
  SpecSpace Direct;
  for (const Packet *P = Trace.data(); P != TraceEnd; ++P)
    applyPacket(*P, Table.lookup(P->FlowKey), S, Direct);
  return S;
}
