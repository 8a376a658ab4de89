//===- workloads/Packets.h - Packet-processing flow pipeline ----*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Packet-processing workload family: a stateful flow-table pipeline
/// built directly on the SpiceRuntime / LoopBuilder API. Each iteration
/// consumes one packet from a trace, looks its flow up in a
/// hash-bucketed connection-tracking table (an immutable chain walk),
/// and updates the flow's counters and a tiny SYN/FIN state machine
/// through the SpecSpace.
///
/// The dependence structure is the inverse of the graph family: most
/// packets touch *disjoint* flows, and the trace generator's same-flow
/// bursts and heavy head of hot flows only bump counters, which are
/// commutative SpecSpace::add updates that commit without validation.
/// What can still fail validation is the SYN/FIN state machine: a flow
/// whose state a predecessor chunk moves after a speculative chunk read
/// it -- rare, bursty mispredictions on an otherwise embarrassingly
/// speculative loop.
/// Trace length varies between invocations, so memoized trace-cursor
/// predictions also go stale at the tail, like otter's shrinking list.
///
/// See docs/workloads.md for how this family maps onto the runtime.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_WORKLOADS_PACKETS_H
#define SPICE_WORKLOADS_PACKETS_H

#include "core/LoopBuilder.h"
#include "core/SpecWriteBuffer.h"
#include "core/SpiceRuntime.h"
#include "support/Random.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spice {
namespace workloads {

/// One packet of the trace. Flags drive the per-flow state machine.
struct Packet {
  uint64_t FlowKey = 0;
  uint32_t Length = 0;
  uint32_t Flags = 0; ///< Bitwise OR of PacketFlags.
};

enum PacketFlags : uint32_t {
  PacketSyn = 1u << 0,
  PacketFin = 1u << 1,
};

/// Connection-tracking entry. Key and NextInBucket are immutable after
/// table construction (the chain walk needs no SpecSpace); the counters
/// and State are the shared mutable state every access must route
/// through the SpecSpace.
struct FlowEntry {
  uint64_t Key = 0;
  FlowEntry *NextInBucket = nullptr;
  int64_t Packets = 0;
  int64_t Bytes = 0;
  int64_t State = 0; ///< 0 = new, 1 = established, 2 = closed.
};

/// Hash-bucketed flow table with all flows pre-inserted (connection
/// tracking tables pre-allocate; the hot loop never allocates).
class FlowTable {
public:
  /// \p NumFlows random 64-bit keys (deterministic from \p Seed) hashed
  /// into \p NumBuckets chains.
  FlowTable(size_t NumFlows, size_t NumBuckets, uint64_t Seed);

  FlowTable(const FlowTable &) = delete;
  FlowTable &operator=(const FlowTable &) = delete;

  /// Chain walk; null when the key is not tracked.
  FlowEntry *lookup(uint64_t Key);

  size_t numFlows() const { return Flows.size(); }
  size_t numBuckets() const { return Buckets.size(); }
  size_t maxChainLength() const;

  /// The tracked keys, in insertion order (the trace generator samples
  /// from these).
  const std::vector<uint64_t> &keys() const { return Keys; }

  /// Folds every flow's counters and state into one value (order
  /// sensitive): bit-for-bit comparison of two tables in one number.
  uint64_t checksum() const;

  /// True when every flow's counters and state match \p Other's
  /// (tables must be built from the same seed/shape).
  bool countersEqual(const FlowTable &Other) const;

  void resetCounters();

private:
  size_t bucketOf(uint64_t Key) const;

  std::vector<FlowEntry> Flows; ///< Stable addresses; never reallocated.
  std::vector<FlowEntry *> Buckets;
  std::vector<uint64_t> Keys;
};

/// Per-chunk reduction state of one trace run.
struct PacketState {
  int64_t Packets = 0;
  int64_t Bytes = 0;
  int64_t Opened = 0; ///< SYN accepted on a new flow.
  int64_t Closed = 0; ///< FIN accepted on an established flow.

  bool operator==(const PacketState &) const = default;
};

/// The packet-pipeline facade, mirroring Otter.h/Mcf.h: deterministic
/// seeded input (flow table + trace generator), a sequential oracle
/// (processTraceReference on a twin instance built from the same seed),
/// and makeLoop() wiring the per-packet loop onto a shared
/// SpiceRuntime. The facade must outlive every loop built from it;
/// regenerate the trace only between invocations.
class PacketPipeline {
public:
  using Loop = spice::LambdaLoop<const Packet *, PacketState>;

  /// \p MaxTrace bounds every generated trace; the trace arena is
  /// allocated once at that capacity so stale trace-cursor predictions
  /// from longer past traces stay within mapped memory.
  PacketPipeline(size_t NumFlows, size_t NumBuckets, size_t MaxTrace,
                 uint64_t Seed);

  PacketPipeline(const PacketPipeline &) = delete;
  PacketPipeline &operator=(const PacketPipeline &) = delete;

  /// Fills the trace arena with \p NumPackets packets (clamped to the
  /// arena capacity). Flow choice models the temporal locality of real
  /// traces: packets draw from a window of flows that slides with the
  /// trace position, so distinct chunks of the trace touch mostly
  /// disjoint flows and usually commit cleanly. Two dials inject
  /// cross-chunk sharing: with probability \p HotProb a packet hits one
  /// of a few global heavy-hitter flows, and with probability \p
  /// BurstProb it starts a run of up to \p BurstLen consecutive
  /// same-flow packets (bursts straddle chunk boundaries). Shared
  /// counters commute; a shared flow's SYN/FIN state change is what
  /// forces a conflict squash. Returns the trace length.
  size_t generateTrace(size_t NumPackets, double BurstProb = 0.05,
                       unsigned BurstLen = 8, double HotProb = 0.02);

  const Packet *traceBegin() const { return Trace.data(); }
  size_t traceLength() const { return TraceLen; }

  /// Builds the per-packet loop on \p Runtime. Conflict detection is
  /// forced on: per-flow counters are read-modify-write on shared
  /// state.
  Loop makeLoop(core::SpiceRuntime &Runtime, core::LoopOptions Opts = {});

  /// Sequential oracle: processes the current trace directly (no
  /// speculation) into this instance's table. Call it on a *twin*
  /// instance built from the same seed and fed the same generateTrace
  /// calls -- running it on the speculated instance would double-apply
  /// the counter updates.
  PacketState processTraceReference();

  FlowTable &table() { return Table; }
  const FlowTable &table() const { return Table; }

  /// One packet against one flow entry; \p Mem decides buffered vs
  /// direct. Shared by the speculative step and the oracle, so the two
  /// can never drift apart.
  static void applyPacket(const Packet &P, FlowEntry *F, PacketState &S,
                          core::SpecSpace &Mem);

private:
  FlowTable Table;
  RandomEngine Rng;
  std::vector<Packet> Trace; ///< Fixed capacity MaxTrace; stable.
  size_t TraceLen = 0;
  const Packet *TraceEnd = nullptr; ///< Read-only during an invocation.
};

} // namespace workloads
} // namespace spice

#endif // SPICE_WORKLOADS_PACKETS_H
