//===- core/SpecWriteBuffer.h - Software speculative memory -----*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Software stand-in for the paper's hardware speculative-state buffering
/// (section 3): each speculative *chunk* owns one buffer and redirects its
/// stores into it with read-own-writes semantics. Buffers are per-chunk,
/// not per-thread -- with oversubscription a worker executes many chunks
/// per invocation (and a stolen recovery chunk may execute on any thread),
/// so speculative state must travel with the chunk. The resolving main
/// thread commits buffers strictly in chunk order after validating each
/// chunk's start; on squash the buffer is discarded. Reads of shared
/// memory are logged with the value observed so the runtime can perform
/// commit-time value validation (the software analogue of conflict
/// detection; silent same-value re-writes validate cleanly -- an ABA
/// write sequence that restores the observed value is *intended* to
/// validate, exactly like the paper's value-based conflict check).
///
/// Storage layout: one open-addressing hash table (pointer-keyed, linear
/// probing, power-of-two capacity) indexes both the write log and the
/// read log. Slots are invalidated wholesale by bumping a generation
/// stamp, so clear() is O(live entries), not O(capacity), and the table
/// carries no tombstones (entries are never erased within a generation).
/// The table and both logs start on inline storage sized so the common
/// small chunk never heap-allocates; a buffer that did grow keeps its
/// capacity across clear() so loops re-invoked millions of times stop
/// paying malloc/rehash after warm-up (see capacity()/rehashes()).
///
/// Commutative counter updates (add) buffer a *delta* instead of a value:
/// they read no shared memory, so they log nothing to validate, and
/// commit() applies current + delta. Two chunks that only bump the same
/// counter therefore both commit. A later read of the counter in the
/// same chunk turns the delta back into a validated value write.
///
/// A buffer that will never be validated (its loop runs without
/// conflict detection) skips the read log altogether: setLogReads(false)
/// leaves read() with only the own-write lookup.
///
/// Concurrent access discipline: locations that may be written by one
/// thread while read speculatively by another are accessed through
/// std::atomic_ref with relaxed ordering, which keeps the racy reads the
/// hardware would permit well-defined in C++. Odd-sized values (3/5/6/7
/// bytes) take a plain memcpy path everywhere -- loads, validation, and
/// commit -- consistent with loadShared/storeShared.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SPECWRITEBUFFER_H
#define SPICE_CORE_SPECWRITEBUFFER_H

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace spice {
namespace core {

/// A value small enough to live in one buffer slot.
template <typename T>
concept BufferableValue =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(uint64_t);

/// A value commutative adds apply to: a non-bool integer of 1-8 bytes.
template <typename T>
concept AddableValue =
    BufferableValue<T> && std::integral<T> && !std::same_as<T, bool>;

namespace detail {

/// Minimal small-buffer vector for trivially copyable elements: the first
/// N elements live inline, growth moves to a doubling heap array. Used for
/// the speculative write/read logs so small chunks never heap-allocate.
template <typename T, size_t N> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);

public:
  SmallVec() = default;
  SmallVec(const SmallVec &) = delete;
  SmallVec &operator=(const SmallVec &) = delete;

  void push_back(const T &V) {
    if (Sz == Cap)
      grow();
    Data[Sz++] = V;
  }
  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }
  size_t size() const { return Sz; }
  size_t capacity() const { return Cap; }
  bool empty() const { return Sz == 0; }
  void clear() { Sz = 0; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Sz; }

private:
  void grow() {
    size_t NewCap = Cap * 2;
    auto NewHeap = std::make_unique<T[]>(NewCap);
    std::memcpy(NewHeap.get(), Data, Sz * sizeof(T));
    Heap = std::move(NewHeap);
    Data = Heap.get();
    Cap = NewCap;
  }

  T Inline[N];
  std::unique_ptr<T[]> Heap;
  T *Data = Inline;
  size_t Sz = 0;
  size_t Cap = N;
};

} // namespace detail

/// Private buffer of speculative stores plus a read-validation log.
class SpecWriteBuffer {
  /// Inline hash-table capacity (power of two). At the 1/2 load-factor
  /// limit this indexes up to InlineCap/2 distinct addresses before the
  /// first heap allocation, which also bounds the inline log sizes below.
  static constexpr size_t InlineCap = 64;
  static constexpr size_t InlineLog = InlineCap / 2;
  static constexpr uint32_t NoIdx = ~uint32_t{0};

public:
  SpecWriteBuffer() = default;
  // The loop owns buffers in a vector sized once at construction; the
  // table keeps interior pointers into inline storage, so copies and
  // moves are disallowed rather than fixed up.
  SpecWriteBuffer(const SpecWriteBuffer &) = delete;
  SpecWriteBuffer &operator=(const SpecWriteBuffer &) = delete;

  /// Buffered speculative store. Repeat writes to the same address update
  /// the existing log slot in place; the *last* write's size wins, so the
  /// final commit stores exactly the bytes of the final value.
  template <BufferableValue T> void write(T *Ptr, T V) {
    uint64_t Raw = 0;
    std::memcpy(&Raw, &V, sizeof(T));
    Entry &E = findOrInsert(Ptr);
    recordWrite(E, Ptr, Raw, sizeof(T));
  }

  /// Speculative load: own writes first, then shared memory (relaxed
  /// atomic), logging the observed value for commit-time validation.
  /// Only the *first* read of an address is logged; validation checks
  /// the first-observed value. Without the read log (setLogReads(false))
  /// a read inserts nothing: it probes for an own write and loads.
  template <BufferableValue T> T read(const T *Ptr) {
    void *Key = const_cast<T *>(Ptr);
    Entry *E = LogReads ? &findOrInsert(Key) : probe(Key);
    if (E->Gen == Gen && E->WriteIdx != NoIdx) {
      Slot &S = WriteLog[E->WriteIdx];
      if (S.Delta)
        materialize(*E, S);
      T V;
      std::memcpy(&V, &S.Raw, sizeof(T));
      return V;
    }
    T V = loadShared(Ptr);
    if (LogReads) {
      uint64_t Raw = 0;
      std::memcpy(&Raw, &V, sizeof(T));
      logRead(*E, Ptr, Raw, sizeof(T));
    }
    return V;
  }

  /// Commutative counter update: buffers Delta without reading shared
  /// memory, so nothing is logged for validation and a concurrent
  /// predecessor's update to the same counter cannot squash this chunk.
  /// commit() stores current + delta, wrapping in the slot's width. An
  /// add after a write or an add accumulates into the slot (wrapping);
  /// a later write replaces the delta; a later read materializes it
  /// (see read()).
  template <AddableValue T> void add(T *Ptr, T Delta) {
    uint64_t Raw = 0;
    std::memcpy(&Raw, &Delta, sizeof(T));
    Entry &E = findOrInsert(Ptr);
    if (E.WriteIdx == NoIdx) {
      E.WriteIdx = static_cast<uint32_t>(WriteLog.size());
      WriteLog.push_back({Ptr, Raw, sizeof(T), /*Delta=*/true});
      return;
    }
    Slot &S = WriteLog[E.WriteIdx];
    S.Raw = wrapAdd(S.Raw, Raw, sizeof(T));
    S.Size = sizeof(T);
  }

  /// Commit-time validation: true when every logged read still matches
  /// shared memory. Chunks commit in iteration order, so success implies
  /// the chunk's execution serializes after its predecessors.
  bool validateReads() const {
    for (const LoggedRead &LR : ReadLog)
      if (loadRaw(LR.Addr, LR.Size) != LR.Raw)
        return false;
    return true;
  }

  /// Publishes buffered stores to shared memory (relaxed atomics) in
  /// program order; a delta slot stores current + delta. The caller must
  /// have validated first.
  void commit() {
    for (const Slot &S : WriteLog)
      storeRaw(S.Addr,
               S.Delta ? wrapAdd(loadRaw(S.Addr, S.Size), S.Raw, S.Size)
                       : S.Raw,
               S.Size);
    clear();
  }

  /// Discards all buffered state (squash). O(live entries): table slots
  /// die wholesale via the generation bump, logs just reset their size,
  /// and all capacity (table and logs) is retained for reuse.
  void clear() {
    WriteLog.clear();
    ReadLog.clear();
    Live = 0;
    if (++Gen == 0) {
      // Generation counter wrapped (once per 2^32 clears): stale slots
      // from 2^32 generations ago could alias the new stamp, so reset
      // every slot once and restart at 1.
      for (size_t I = 0; I < Cap; ++I)
        Table[I].Gen = 0;
      Gen = 1;
    }
  }

  /// Whether read() logs shared values for validateReads() (default on).
  /// A loop sets it per buffer from its EnableConflictDetection: a loop
  /// that never validates has no use for the log.
  void setLogReads(bool On) { LogReads = On; }

  bool empty() const { return WriteLog.empty() && ReadLog.empty(); }
  size_t numWrites() const { return WriteLog.size(); }
  size_t numLoggedReads() const { return ReadLog.size(); }

  /// Introspection for reuse/leak tests and stats: current table slot
  /// count, cumulative growth count since construction, and whether the
  /// table still lives in inline storage (no heap allocation yet).
  size_t capacity() const { return Cap; }
  uint64_t rehashes() const { return Rehashes; }
  bool usesInlineStorage() const { return HeapTable == nullptr; }

  /// Relaxed-atomic load usable for both speculative and direct accesses.
  /// (atomic_ref<const T> is not available until after C++20, hence the
  /// const_cast; the object itself is never const.)
  template <BufferableValue T> static T loadShared(const T *Ptr) {
    if constexpr (sizeof(T) == 8 || sizeof(T) == 4 || sizeof(T) == 2 ||
                  sizeof(T) == 1) {
      std::atomic_ref<T> Ref(*const_cast<T *>(Ptr));
      return Ref.load(std::memory_order_relaxed);
    } else {
      return *Ptr; // Odd-sized trivially copyable types: plain load.
    }
  }

  /// Relaxed-atomic store for direct (non-speculative) accesses.
  template <BufferableValue T> static void storeShared(T *Ptr, T V) {
    if constexpr (sizeof(T) == 8 || sizeof(T) == 4 || sizeof(T) == 2 ||
                  sizeof(T) == 1) {
      std::atomic_ref<T> Ref(*Ptr);
      Ref.store(V, std::memory_order_relaxed);
    } else {
      *Ptr = V;
    }
  }

private:
  /// One buffered store: a value, or (Delta) an amount add() applies to
  /// the shared value at commit.
  struct Slot {
    void *Addr;
    uint64_t Raw;
    uint8_t Size;
    bool Delta;
  };
  struct LoggedRead {
    const void *Addr;
    uint64_t Raw;
    uint8_t Size;
  };
  /// One table slot: live iff Gen matches the buffer's current
  /// generation. WriteIdx/ReadIdx index into the logs (NoIdx = absent).
  struct Entry {
    void *Key;
    uint32_t Gen;
    uint32_t WriteIdx;
    uint32_t ReadIdx;
  };

  static size_t hashPtr(const void *P) {
    uint64_t X = reinterpret_cast<uintptr_t>(P);
    X ^= X >> 29;
    X *= UINT64_C(0x9E3779B97F4A7C15); // Fibonacci hashing multiplier.
    X ^= X >> 32;
    return static_cast<size_t>(X);
  }

  /// First slot in the probe sequence that either holds Key or is free
  /// (stale generation). Within a generation entries are never erased,
  /// so linear probing needs no tombstones; slots from earlier
  /// generations terminate probes exactly like never-used slots.
  Entry *probe(void *Key) const {
    size_t Mask = Cap - 1;
    size_t I = hashPtr(Key) & Mask;
    for (;;) {
      Entry &E = Table[I];
      if (E.Gen != Gen || E.Key == Key)
        return &E;
      I = (I + 1) & Mask;
    }
  }

  Entry &findOrInsert(void *Key) {
    Entry *E = probe(Key);
    if (E->Gen == Gen)
      return *E;
    if (2 * (Live + 1) > Cap) { // Grow at 1/2 load factor.
      grow();
      E = probe(Key);
    }
    E->Key = Key;
    E->Gen = Gen;
    E->WriteIdx = NoIdx;
    E->ReadIdx = NoIdx;
    ++Live;
    return *E;
  }

  void recordWrite(Entry &E, void *Ptr, uint64_t Raw, uint8_t Size) {
    if (E.WriteIdx == NoIdx) {
      E.WriteIdx = static_cast<uint32_t>(WriteLog.size());
      WriteLog.push_back({Ptr, Raw, Size, /*Delta=*/false});
      return;
    }
    Slot &S = WriteLog[E.WriteIdx];
    S.Raw = Raw;
    S.Size = Size;
    S.Delta = false;
  }

  void logRead(Entry &E, const void *Ptr, uint64_t Raw, uint8_t Size) {
    if (E.ReadIdx != NoIdx)
      return; // First-read-value wins for validation.
    E.ReadIdx = static_cast<uint32_t>(ReadLog.size());
    ReadLog.push_back({Ptr, Raw, Size});
  }

  /// A read of a counter this chunk only added to: load the shared base,
  /// log it as the first read (the value now depends on it), and turn
  /// the slot into a plain write of base + delta.
  void materialize(Entry &E, Slot &S) {
    uint64_t Base = loadRaw(S.Addr, S.Size);
    if (LogReads)
      logRead(E, S.Addr, Base, S.Size);
    S.Raw = wrapAdd(Base, S.Raw, S.Size);
    S.Delta = false;
  }

  /// A + B in unsigned arithmetic, truncated to \p Size bytes.
  static uint64_t wrapAdd(uint64_t A, uint64_t B, uint8_t Size) {
    uint64_t Sum = A + B;
    return Size >= 8 ? Sum : Sum & ((uint64_t{1} << (8 * Size)) - 1);
  }

  void grow() {
    size_t NewCap = Cap * 2;
    // Value-initialized: Gen == 0, dead under every current Gen >= 1.
    auto NewTable = std::make_unique<Entry[]>(NewCap);
    size_t Mask = NewCap - 1;
    for (size_t I = 0; I < Cap; ++I) {
      const Entry &Old = Table[I];
      if (Old.Gen != Gen)
        continue;
      size_t J = hashPtr(Old.Key) & Mask;
      while (NewTable[J].Gen == Gen)
        J = (J + 1) & Mask;
      NewTable[J] = Old;
    }
    HeapTable = std::move(NewTable);
    Table = HeapTable.get();
    Cap = NewCap;
    ++Rehashes;
  }

  template <typename U> static uint64_t rawLoad(const void *Ptr) {
    std::atomic_ref<U> Ref(*static_cast<U *>(const_cast<void *>(Ptr)));
    return static_cast<uint64_t>(Ref.load(std::memory_order_relaxed));
  }
  template <typename U> static void rawStore(void *Ptr, uint64_t Raw) {
    std::atomic_ref<U> Ref(*static_cast<U *>(Ptr));
    Ref.store(static_cast<U>(Raw), std::memory_order_relaxed);
  }

  /// Size-dispatched relaxed load/store of a zero-extended raw value;
  /// odd sizes take the plain memcpy path, matching loadShared and
  /// storeShared.
  static uint64_t loadRaw(const void *Ptr, uint8_t Size) {
    switch (Size) {
    case 8:
      return rawLoad<uint64_t>(Ptr);
    case 4:
      return rawLoad<uint32_t>(Ptr);
    case 2:
      return rawLoad<uint16_t>(Ptr);
    case 1:
      return rawLoad<uint8_t>(Ptr);
    default: {
      uint64_t Raw = 0;
      std::memcpy(&Raw, Ptr, Size);
      return Raw;
    }
    }
  }
  static void storeRaw(void *Ptr, uint64_t Raw, uint8_t Size) {
    switch (Size) {
    case 8:
      return rawStore<uint64_t>(Ptr, Raw);
    case 4:
      return rawStore<uint32_t>(Ptr, Raw);
    case 2:
      return rawStore<uint16_t>(Ptr, Raw);
    case 1:
      return rawStore<uint8_t>(Ptr, Raw);
    default:
      std::memcpy(Ptr, &Raw, Size);
      return;
    }
  }

  Entry InlineTable[InlineCap] = {}; // Gen == 0: dead under Gen >= 1.
  std::unique_ptr<Entry[]> HeapTable;
  Entry *Table = InlineTable;
  size_t Cap = InlineCap;
  size_t Live = 0;     // Distinct addresses touched this generation.
  uint32_t Gen = 1;    // Current generation stamp; 0 is never current.
  uint64_t Rehashes = 0;
  bool LogReads = true; ///< See setLogReads.
  detail::SmallVec<Slot, InlineLog> WriteLog;
  detail::SmallVec<LoggedRead, InlineLog> ReadLog;
};

/// Aggregate introspection over a set of SpecWriteBuffers (a loop's
/// per-chunk buffer pool, SpiceLoop::bufferPoolStats). TableSlots and
/// Rehashes are monotone and stabilize once the loop has seen its
/// working set; the reuse/leak stress test asserts exactly that.
struct SpecBufferPoolStats {
  uint64_t Buffers = 0;    ///< Buffers kept alive across invocations.
  uint64_t TableSlots = 0; ///< Sum of open-addressing table capacities.
  uint64_t Rehashes = 0;   ///< Cumulative table growth events.
  uint64_t HeapTables = 0; ///< Buffers that outgrew inline storage.
};

/// The memory view handed to loop bodies: direct when the executing thread
/// is non-speculative, buffered when speculative. Loop bodies route every
/// access to shared mutable state through this object.
class SpecSpace {
public:
  /// Direct (non-speculative) view.
  SpecSpace() = default;
  /// Buffered (speculative) view.
  explicit SpecSpace(SpecWriteBuffer *Buf) : Buf(Buf) {}

  bool isSpeculative() const { return Buf != nullptr; }

  template <BufferableValue T> T read(const T *Ptr) {
    if (Buf)
      return Buf->read(Ptr);
    return SpecWriteBuffer::loadShared(Ptr);
  }

  template <BufferableValue T> void write(T *Ptr, T V) {
    if (Buf) {
      Buf->write(Ptr, V);
      return;
    }
    SpecWriteBuffer::storeShared(Ptr, V);
  }

  /// Commutative update of a shared counter (flow statistics, visit
  /// counts) whose old value the body does not use: a buffered delta
  /// when speculative (SpecWriteBuffer::add, nothing to validate), a
  /// relaxed load + store when direct. A body that needs the old value
  /// reads it, which makes the update validated again.
  template <AddableValue T> void add(T *Ptr, T Delta) {
    if (Buf) {
      Buf->add(Ptr, Delta);
      return;
    }
    using U = std::make_unsigned_t<T>;
    U Old = static_cast<U>(SpecWriteBuffer::loadShared(Ptr));
    SpecWriteBuffer::storeShared(Ptr,
                                 static_cast<T>(Old + static_cast<U>(Delta)));
  }

private:
  SpecWriteBuffer *Buf = nullptr;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SPECWRITEBUFFER_H
