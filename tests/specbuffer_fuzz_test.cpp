//===- tests/specbuffer_fuzz_test.cpp - Differential SpecWriteBuffer fuzz -===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing of SpecWriteBuffer against a trivially correct
/// reference model (std::map keyed by address). Each round drives one
/// buffer -- deliberately *reused* across rounds so the generation-stamp
/// clear and capacity-retention paths are exercised -- through a seeded
/// random sequence of write/read/add/mutate-shared/validate/commit/clear
/// operations over mixed 1/2/4/8-byte cells, checking after every step
/// that the buffer's observable behaviour (returned values, log sizes,
/// validation verdicts, committed memory) matches the model. Commutative
/// adds buffer deltas, so the model covers delta accumulation with
/// wrap-around and the add->read, add->write and write->add hand-offs.
///
/// Rounds alternate between a narrow address range (buffer can stay on
/// inline storage) and a wide one that is pre-seeded with enough
/// distinct addresses to deterministically force table growth,
/// rehashing, and the heap table, so both storage regimes are fuzzed by
/// every run. Every fourth round turns the read log off, as a loop
/// without conflict detection does. The round count defaults to a few
/// thousand and can be raised with the SPICE_FUZZ_ROUNDS environment
/// variable for soak runs.
///
//===----------------------------------------------------------------------===//

#include "core/SpecWriteBuffer.h"

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <random>

using namespace spice::core;

namespace {

/// Reference model: exact per-address semantics of the buffer, written
/// for obviousness rather than speed. Raw always holds the value
/// zero-extended from its Size low bytes (same convention as the buffer).
struct RefModel {
  struct Val {
    uint64_t Raw;
    uint8_t Size;
    bool Delta = false; ///< Writes only: Raw is an add()'s pending delta.
  };
  std::map<const void *, Val> Writes;
  std::map<const void *, Val> Reads;

  void clear() {
    Writes.clear();
    Reads.clear();
  }
};

/// Loads Size bytes from Addr into a zero-extended uint64_t, matching
/// how the buffer stores raw values.
uint64_t rawLoadBytes(const void *Addr, uint8_t Size) {
  uint64_t Raw = 0;
  std::memcpy(&Raw, Addr, Size);
  return Raw;
}

/// A + B truncated to Size bytes: the wrap-around an add must produce.
uint64_t wrapBytes(uint64_t A, uint64_t B, uint8_t Size) {
  uint64_t Sum = A + B;
  return Size == 8 ? Sum : Sum % (uint64_t{1} << (8 * Size));
}

/// One typed arena per cell width. The buffer only ever sees a given
/// cell at its own width, so the model never has to reason about
/// overlapping accesses of different sizes (that corner is covered by
/// directed tests in specbuffer_test.cpp).
template <typename T, size_t N> struct TypedCells {
  std::array<T, N> Shared; ///< Memory the buffer reads and commits to.
  std::array<T, N> Shadow; ///< The model's prediction of Shared.
};

class Fuzzer {
  static constexpr size_t NumCells = 96;
  /// Distinct addresses pre-seeded into wide rounds: comfortably past
  /// the inline live limit (InlineCap / 2 == 32), so every wide round
  /// deterministically rehashes onto the heap table.
  static constexpr size_t WidePreheat = 48;

public:
  explicit Fuzzer(uint64_t Seed) : Rng(Seed) {
    C8.Shared.fill(0);
    C16.Shared.fill(0);
    C32.Shared.fill(0);
    C64.Shared.fill(0);
    C8.Shadow = C8.Shared;
    C16.Shadow = C16.Shared;
    C32.Shadow = C32.Shared;
    C64.Shadow = C64.Shared;
  }

  /// Runs one round of Ops random operations. Narrow rounds touch few
  /// addresses (buffer can stay inline); wide rounds pre-write enough
  /// distinct addresses to force growth, then fuzz the grown table.
  void runRound(size_t Ops, bool Wide, bool Log) {
    Limit = Wide ? NumCells : 5;
    LogReads = Log;
    Buf.setLogReads(Log);
    if (Wide)
      for (size_t I = 0; I < WidePreheat; ++I)
        doWriteAt<uint64_t>(I);
    for (size_t I = 0; I < Ops; ++I) {
      step();
      ASSERT_EQ(Buf.numWrites(), Model.Writes.size());
      ASSERT_EQ(Buf.numLoggedReads(), Model.Reads.size());
      if (::testing::Test::HasFatalFailure())
        return;
    }
    // End every round with a commit or a squash so rounds stay
    // independent and the generation-bump clear runs constantly.
    if (Rng() & 1)
      doCommit();
    else
      doClear();
  }

  SpecWriteBuffer &buffer() { return Buf; }

  /// How often the interesting add sequences came up (see doAdd).
  struct AddCoverage {
    size_t Wraps = 0, AddThenRead = 0, AddThenWrite = 0, WriteThenAdd = 0;
  };
  const AddCoverage &coverage() const { return Cov; }

private:
  void step() {
    unsigned Roll = static_cast<unsigned>(Rng() % 100);
    if (Roll < 30)
      dispatch([this](auto Tag) { doWrite(Tag); });
    else if (Roll < 58)
      dispatch([this](auto Tag) { doRead(Tag); });
    else if (Roll < 73)
      dispatch([this](auto Tag) { doAdd(Tag); });
    else if (Roll < 83)
      dispatch([this](auto Tag) { doMutateShared(Tag); });
    else if (Roll < 95)
      doValidate();
    else if (Roll < 98)
      doCommit();
    else
      doClear();
  }

  /// Invokes Fn with a value of a randomly chosen cell type.
  template <typename Fn> void dispatch(Fn &&F) {
    switch (Rng() % 4) {
    case 0:
      F(uint8_t{});
      break;
    case 1:
      F(uint16_t{});
      break;
    case 2:
      F(uint32_t{});
      break;
    default:
      F(uint64_t{});
      break;
    }
  }

  template <typename T> TypedCells<T, NumCells> &cells() {
    if constexpr (sizeof(T) == 1)
      return C8;
    else if constexpr (sizeof(T) == 2)
      return C16;
    else if constexpr (sizeof(T) == 4)
      return C32;
    else
      return C64;
  }

  template <typename T> void doWriteAt(size_t I) {
    auto &C = cells<T>();
    T *Addr = &C.Shared[I];
    T V = static_cast<T>(Rng());
    Buf.write(Addr, V);
    uint64_t Raw = 0;
    std::memcpy(&Raw, &V, sizeof(T));
    auto [W, New] = Model.Writes.try_emplace(Addr);
    if (!New && W->second.Delta)
      ++Cov.AddThenWrite;
    W->second = {Raw, sizeof(T), false};
  }

  template <typename T> void doWrite(T) { doWriteAt<T>(Rng() % Limit); }

  template <typename T> void doRead(T) {
    auto &C = cells<T>();
    T *Addr = &C.Shared[Rng() % Limit];
    T Got = Buf.read(Addr);
    // Expected: own buffered write first, else the current shared value.
    T Want;
    auto W = Model.Writes.find(Addr);
    if (W != Model.Writes.end()) {
      RefModel::Val &V = W->second;
      if (V.Delta) {
        // A read of an added-to counter loads the base, logs it as the
        // first read, and leaves a plain write of base + delta.
        ++Cov.AddThenRead;
        uint64_t Base = rawLoadBytes(Addr, sizeof(T));
        logRead(Addr, Base, sizeof(T));
        V = {wrapBytes(Base, V.Raw, sizeof(T)), sizeof(T), false};
      }
      std::memcpy(&Want, &V.Raw, sizeof(T));
    } else {
      Want = *Addr;
      logRead(Addr, rawLoadBytes(Addr, sizeof(T)), sizeof(T));
    }
    ASSERT_EQ(Got, Want) << "read mismatch at width " << sizeof(T);
  }

  /// Only the first read of an address is logged, and only with the log
  /// on.
  void logRead(const void *Addr, uint64_t Raw, uint8_t Size) {
    if (LogReads)
      Model.Reads.try_emplace(Addr, RefModel::Val{Raw, Size});
  }

  template <typename T> void doAdd(T) {
    auto &C = cells<T>();
    T *Addr = &C.Shared[Rng() % Limit];
    // Mostly near the top of the range, so sums wrap often.
    T Delta = static_cast<T>((Rng() & 1) ? Rng() : ~uint64_t{0} - Rng() % 4);
    Buf.add(Addr, Delta);
    uint64_t Raw = 0;
    std::memcpy(&Raw, &Delta, sizeof(T));
    auto [W, New] = Model.Writes.try_emplace(
        Addr, RefModel::Val{Raw, sizeof(T), /*Delta=*/true});
    if (New)
      return; // Nothing read: no read-log entry.
    RefModel::Val &V = W->second;
    if (!V.Delta)
      ++Cov.WriteThenAdd;
    uint64_t Sum = wrapBytes(V.Raw, Raw, sizeof(T));
    if (Sum < V.Raw)
      ++Cov.Wraps;
    V.Raw = Sum;
  }

  /// Another "thread" mutating shared memory under the buffer's feet --
  /// this is what makes validateReads fail (and, when a value is later
  /// restored, what makes the ABA case validate cleanly).
  template <typename T> void doMutateShared(T) {
    auto &C = cells<T>();
    size_t I = Rng() % Limit;
    // Small value range so ABA (changed then restored) happens often.
    T V = static_cast<T>(Rng() % 4);
    SpecWriteBuffer::storeShared(&C.Shared[I], V);
    C.Shadow[I] = V;
  }

  void doValidate() {
    bool Want = true;
    for (const auto &[Addr, R] : Model.Reads)
      if (rawLoadBytes(Addr, R.Size) != R.Raw)
        Want = false;
    ASSERT_EQ(Buf.validateReads(), Want);
  }

  /// Maps an address inside a Shared arena to the same offset in the
  /// corresponding Shadow arena.
  void *shadowOf(const void *Addr) {
    auto In = [&](auto &C) -> void * {
      const char *B = reinterpret_cast<const char *>(C.Shared.data());
      const char *P = reinterpret_cast<const char *>(Addr);
      if (P >= B && P < B + sizeof(C.Shared))
        return reinterpret_cast<char *>(C.Shadow.data()) + (P - B);
      return nullptr;
    };
    if (void *S = In(C8))
      return S;
    if (void *S = In(C16))
      return S;
    if (void *S = In(C32))
      return S;
    return In(C64);
  }

  void doCommit() {
    // The buffer publishes into Shared; the model predicts the result
    // by applying its write set to the shadow copy.
    Buf.commit();
    for (const auto &[Addr, W] : Model.Writes) {
      void *Shadow = shadowOf(Addr);
      uint64_t Raw = W.Raw;
      if (W.Delta) {
        uint64_t Base = rawLoadBytes(Shadow, W.Size);
        Raw = wrapBytes(Base, W.Raw, W.Size);
        if (Raw < Base)
          ++Cov.Wraps;
      }
      std::memcpy(Shadow, &Raw, W.Size);
    }
    Model.clear();
    ASSERT_TRUE(Buf.empty());
    checkMemory();
  }

  void doClear() {
    Buf.clear();
    Model.clear();
    ASSERT_TRUE(Buf.empty());
    ASSERT_EQ(Buf.numWrites(), 0u);
    ASSERT_EQ(Buf.numLoggedReads(), 0u);
  }

  /// After a commit the real arenas must match the shadow byte for byte.
  void checkMemory() {
    ASSERT_EQ(
        std::memcmp(C8.Shared.data(), C8.Shadow.data(), sizeof(C8.Shared)),
        0);
    ASSERT_EQ(
        std::memcmp(C16.Shared.data(), C16.Shadow.data(), sizeof(C16.Shared)),
        0);
    ASSERT_EQ(
        std::memcmp(C32.Shared.data(), C32.Shadow.data(), sizeof(C32.Shared)),
        0);
    ASSERT_EQ(
        std::memcmp(C64.Shared.data(), C64.Shadow.data(), sizeof(C64.Shared)),
        0);
  }

  std::mt19937_64 Rng;
  SpecWriteBuffer Buf;
  RefModel Model;
  AddCoverage Cov;
  size_t Limit = NumCells;
  bool LogReads = true;
  TypedCells<uint8_t, NumCells> C8;
  TypedCells<uint16_t, NumCells> C16;
  TypedCells<uint32_t, NumCells> C32;
  TypedCells<uint64_t, NumCells> C64;
};

size_t fuzzRounds() {
  if (const char *Env = std::getenv("SPICE_FUZZ_ROUNDS"))
    if (long V = std::atol(Env); V > 0)
      return static_cast<size_t>(V);
  return 2000;
}

TEST(SpecBufferFuzz, DifferentialVsReferenceModel) {
  Fuzzer F(UINT64_C(0xC0FFEE));
  size_t Rounds = fuzzRounds();
  for (size_t R = 0; R < Rounds; ++R) {
    // Alternate storage regimes; one reused buffer across all rounds.
    F.runRound(/*Ops=*/100, /*Wide=*/(R & 1) != 0,
               /*LogReads=*/R % 4 != 3);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "fuzz failed in round " << R;
  }
  const auto &Cov = F.coverage();
  EXPECT_GT(Cov.Wraps, 0u);
  EXPECT_GT(Cov.AddThenRead, 0u);
  EXPECT_GT(Cov.AddThenWrite, 0u);
  EXPECT_GT(Cov.WriteThenAdd, 0u);
  // Wide rounds pre-seed 48 distinct addresses, past the inline live
  // limit, so the reused buffer must have grown onto the heap.
  EXPECT_FALSE(F.buffer().usesInlineStorage());
  EXPECT_GT(F.buffer().rehashes(), 0u);
  EXPECT_GE(F.buffer().capacity(), 128u);
}

/// A second seed as a cheap guard against a "lucky" primary seed.
TEST(SpecBufferFuzz, DifferentialSecondSeed) {
  Fuzzer F(UINT64_C(0x5EEDED));
  for (size_t R = 0; R < 200; ++R) {
    F.runRound(/*Ops=*/100, /*Wide=*/(R % 3) == 0,
               /*LogReads=*/R % 4 != 3);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "fuzz failed in round " << R;
  }
}

} // namespace
