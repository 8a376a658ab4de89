//===- tests/specbuffer_test.cpp - SpecWriteBuffer tests ------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/SpecWriteBuffer.h"

#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace spice::core;

TEST(SpecWriteBuffer, ReadOwnWrites) {
  int64_t Cell = 7;
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Cell), 7);
  Buf.write(&Cell, int64_t{42});
  EXPECT_EQ(Buf.read(&Cell), 42);
  EXPECT_EQ(Cell, 7) << "write must stay buffered";
}

TEST(SpecWriteBuffer, CommitPublishesInProgramOrder) {
  int64_t A = 0, B = 0;
  SpecWriteBuffer Buf;
  Buf.write(&A, int64_t{1});
  Buf.write(&B, int64_t{2});
  Buf.write(&A, int64_t{3}); // Overwrites the slot, keeps one entry.
  EXPECT_EQ(Buf.numWrites(), 2u);
  Buf.commit();
  EXPECT_EQ(A, 3);
  EXPECT_EQ(B, 2);
  EXPECT_TRUE(Buf.empty());
}

TEST(SpecWriteBuffer, ClearDiscardsWrites) {
  int64_t Cell = 5;
  SpecWriteBuffer Buf;
  Buf.write(&Cell, int64_t{9});
  Buf.clear();
  EXPECT_EQ(Cell, 5);
  EXPECT_TRUE(Buf.empty());
}

TEST(SpecWriteBuffer, ValidationPassesWhenMemoryUnchanged) {
  int64_t Cell = 11;
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Cell), 11);
  EXPECT_TRUE(Buf.validateReads());
}

TEST(SpecWriteBuffer, ValidationFailsOnChangedValue) {
  int64_t Cell = 11;
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Cell), 11);
  Cell = 12; // Another chunk committed a different value.
  EXPECT_FALSE(Buf.validateReads());
}

TEST(SpecWriteBuffer, SilentRewriteValidates) {
  int64_t Cell = 11;
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Cell), 11);
  Cell = 13;
  Cell = 11; // Value restored: serializable, must validate.
  EXPECT_TRUE(Buf.validateReads());
}

TEST(SpecWriteBuffer, OwnWritesAreNotValidated) {
  int64_t Cell = 1;
  SpecWriteBuffer Buf;
  Buf.write(&Cell, int64_t{2});
  EXPECT_EQ(Buf.read(&Cell), 2); // Own write: no read logged.
  Cell = 99;
  EXPECT_TRUE(Buf.validateReads())
      << "reads satisfied from the write buffer must not be validated";
}

TEST(SpecWriteBuffer, FirstReadValueWinsForValidation) {
  int64_t Cell = 4;
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Cell), 4);
  Cell = 5;
  EXPECT_EQ(Buf.read(&Cell), 5); // Second read sees the new value...
  EXPECT_FALSE(Buf.validateReads()) << "...but validation uses the first";
}

TEST(SpecWriteBuffer, MixedWidthValues) {
  int32_t Small = 3;
  uint16_t Tiny = 7;
  int64_t Big = -1;
  SpecWriteBuffer Buf;
  Buf.write(&Small, int32_t{-5});
  Buf.write(&Tiny, uint16_t{65535});
  Buf.write(&Big, int64_t{1} << 60);
  EXPECT_EQ(Buf.read(&Small), -5);
  EXPECT_EQ(Buf.read(&Tiny), 65535);
  EXPECT_EQ(Buf.read(&Big), int64_t{1} << 60);
  Buf.commit();
  EXPECT_EQ(Small, -5);
  EXPECT_EQ(Tiny, 65535);
  EXPECT_EQ(Big, int64_t{1} << 60);
}

TEST(SpecWriteBuffer, PointerValues) {
  int X = 0, Y = 0;
  int *Ptr = &X;
  SpecWriteBuffer Buf;
  Buf.write(&Ptr, &Y);
  EXPECT_EQ(Buf.read(&Ptr), &Y);
  EXPECT_EQ(Ptr, &X);
  Buf.commit();
  EXPECT_EQ(Ptr, &Y);
}

TEST(SpecSpace, DirectModePassesThrough) {
  int64_t Cell = 21;
  SpecSpace Direct;
  EXPECT_FALSE(Direct.isSpeculative());
  EXPECT_EQ(Direct.read(&Cell), 21);
  Direct.write(&Cell, int64_t{22});
  EXPECT_EQ(Cell, 22);
}

TEST(SpecSpace, BufferedModeIsolates) {
  int64_t Cell = 21;
  SpecWriteBuffer Buf;
  SpecSpace Spec(&Buf);
  EXPECT_TRUE(Spec.isSpeculative());
  Spec.write(&Cell, int64_t{22});
  EXPECT_EQ(Cell, 21);
  EXPECT_EQ(Spec.read(&Cell), 22);
}

TEST(SpecSpace, AddDirectMode) {
  int64_t Counter = 10;
  SpecSpace Direct;
  Direct.add(&Counter, int64_t{5});
  EXPECT_EQ(Counter, 15);
  Direct.add(&Counter, int64_t{-20});
  EXPECT_EQ(Counter, -5);
  int64_t Max = INT64_MAX;
  Direct.add(&Max, int64_t{1}); // Wraps: unsigned arithmetic, no UB.
  EXPECT_EQ(Max, INT64_MIN);
}

TEST(SpecSpace, AddBufferedAccumulatesDeltaWithoutReading) {
  int64_t Counter = 10;
  SpecWriteBuffer Buf;
  SpecSpace Spec(&Buf);
  Spec.add(&Counter, int64_t{1});
  Spec.add(&Counter, int64_t{1});
  EXPECT_EQ(Counter, 10) << "increments stay buffered until commit";
  EXPECT_EQ(Buf.numWrites(), 1u) << "both adds share one delta slot";
  EXPECT_EQ(Buf.numLoggedReads(), 0u) << "an add reads no shared memory";
  Buf.commit();
  EXPECT_EQ(Counter, 12);
}

TEST(SpecSpace, AddOnlyBufferValidatesAfterConcurrentUpdate) {
  // Two chunks bumping one counter commute: a predecessor's committed
  // update must not squash this chunk, and the commit applies the
  // delta on top of it.
  int64_t Counter = 10;
  SpecWriteBuffer Buf;
  SpecSpace Spec(&Buf);
  Spec.add(&Counter, int64_t{3});
  SpecWriteBuffer::storeShared(&Counter, int64_t{100}); // Direct write.
  EXPECT_TRUE(Buf.validateReads());
  Buf.commit();
  EXPECT_EQ(Counter, 103);
}

TEST(SpecSpace, AddThenReadFailsValidationWhenBaseMoved) {
  int64_t Counter = 10;
  SpecWriteBuffer Buf;
  SpecSpace Spec(&Buf);
  Spec.add(&Counter, int64_t{2});
  EXPECT_EQ(Spec.read(&Counter), 12) << "a read materializes base + delta";
  EXPECT_EQ(Buf.numLoggedReads(), 1u) << "the base is logged as read";
  EXPECT_TRUE(Buf.validateReads());
  Counter = 50; // A predecessor chunk committed a different count.
  EXPECT_FALSE(Buf.validateReads())
      << "the chunk used the old count, so it must be squashed";
  Counter = 10;
  Buf.commit();
  EXPECT_EQ(Counter, 12) << "a materialized slot commits its value";
}

TEST(SpecSpace, AddAfterWriteAccumulatesAndWriteReplacesDelta) {
  int64_t A = 1, B = 1;
  SpecWriteBuffer Buf;
  SpecSpace Spec(&Buf);
  Spec.write(&A, int64_t{40});
  Spec.add(&A, int64_t{2}); // Accumulates into the buffered value.
  Spec.add(&B, int64_t{5});
  Spec.write(&B, int64_t{7}); // Overwrites the delta.
  EXPECT_EQ(Buf.numLoggedReads(), 0u);
  A = 1000;
  B = 1000;
  Buf.commit();
  EXPECT_EQ(A, 42);
  EXPECT_EQ(B, 7);
}

TEST(SpecSpace, AddWrapsInTheSlotWidth) {
  uint8_t Small = 250;
  int16_t Signed = -2;
  SpecWriteBuffer Buf;
  SpecSpace Spec(&Buf);
  Spec.add(&Small, uint8_t{10});
  Spec.add(&Signed, int16_t{-32767}); // -32769 wraps to 32767.
  Buf.commit();
  EXPECT_EQ(Small, 4);
  EXPECT_EQ(Signed, 32767);
}

TEST(SpecWriteBuffer, NoReadLogWithoutConflictDetection) {
  // A loop without EnableConflictDetection never validates, so its
  // buffers keep only the own-write lookup on reads.
  int64_t Cell = 3, Counter = 5;
  SpecWriteBuffer Buf;
  Buf.setLogReads(false);
  EXPECT_EQ(Buf.read(&Cell), 3);
  EXPECT_EQ(Buf.read(&Cell), 3);
  Buf.write(&Cell, int64_t{4});
  EXPECT_EQ(Buf.read(&Cell), 4);
  Buf.add(&Counter, int64_t{1});
  EXPECT_EQ(Buf.read(&Counter), 6);
  EXPECT_EQ(Buf.numLoggedReads(), 0u);
  EXPECT_EQ(Buf.numWrites(), 2u);
  Buf.commit();
  EXPECT_EQ(Cell, 4);
  EXPECT_EQ(Counter, 6);
}

//===----------------------------------------------------------------------===//
// Edge cases: mixed sizes at one address, odd widths, reuse
//===----------------------------------------------------------------------===//

TEST(SpecWriteBufferEdge, SameAddressNarrowerRewriteCommitsLastSize) {
  // One address, one table slot: a repeat write replaces the slot and
  // the *last* write's size wins. Committing the narrower rewrite
  // stores exactly its bytes; the wider earlier write is superseded, so
  // the cell's upper bytes keep their pre-speculation memory value.
  uint64_t Cell = 0xAABBCCDDEEFF0011ull;
  SpecWriteBuffer Buf;
  Buf.write(&Cell, uint64_t{0x1111111111111111ull});
  Buf.write(reinterpret_cast<uint16_t *>(&Cell), uint16_t{0xBEEF});
  EXPECT_EQ(Buf.numWrites(), 1u) << "same address must share one slot";
  Buf.commit();
  EXPECT_EQ(Cell, 0xAABBCCDDEEFFBEEFull)
      << "only the final 2-byte write may touch memory";
}

TEST(SpecWriteBufferEdge, SameAddressWiderRewriteCommitsLastSize) {
  uint64_t Cell = 0;
  SpecWriteBuffer Buf;
  Buf.write(reinterpret_cast<uint16_t *>(&Cell), uint16_t{0xBEEF});
  Buf.write(&Cell, uint64_t{0x2222222222222222ull});
  EXPECT_EQ(Buf.numWrites(), 1u);
  Buf.commit();
  EXPECT_EQ(Cell, 0x2222222222222222ull);
}

namespace {
/// Odd-sized trivially copyable values: exercise the non-atomic memcpy
/// fallback in loads, validation, and commit.
struct Rgb {
  uint8_t C[3];
  bool operator==(const Rgb &O) const {
    return C[0] == O.C[0] && C[1] == O.C[1] && C[2] == O.C[2];
  }
};
struct Packed5 {
  uint8_t B[5];
  bool operator==(const Packed5 &O) const {
    return std::memcmp(B, O.B, 5) == 0;
  }
};
static_assert(sizeof(Rgb) == 3 && sizeof(Packed5) == 5);
} // namespace

TEST(SpecWriteBufferEdge, OddSizedValuesRoundTripAllBytes) {
  Rgb Pixel = {{1, 2, 3}};
  Packed5 Rec = {{9, 8, 7, 6, 5}};
  SpecWriteBuffer Buf;
  Buf.write(&Pixel, Rgb{{10, 20, 30}});
  Buf.write(&Rec, Packed5{{50, 40, 30, 20, 10}});
  EXPECT_EQ(Buf.read(&Pixel), (Rgb{{10, 20, 30}}));
  EXPECT_EQ(Buf.read(&Rec), (Packed5{{50, 40, 30, 20, 10}}));
  Buf.commit();
  EXPECT_EQ(Pixel, (Rgb{{10, 20, 30}})) << "all 3 bytes must commit";
  EXPECT_EQ(Rec, (Packed5{{50, 40, 30, 20, 10}}))
      << "all 5 bytes must commit";
}

TEST(SpecWriteBufferEdge, OddSizedValidationSeesEveryByte) {
  Rgb Pixel = {{1, 2, 3}};
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Pixel), (Rgb{{1, 2, 3}}));
  Pixel.C[2] = 99; // Byte past the first: a 1-byte check would miss it.
  EXPECT_FALSE(Buf.validateReads())
      << "validation must compare all 3 bytes, not a truncated prefix";
  Pixel.C[2] = 3;
  EXPECT_TRUE(Buf.validateReads());
}

TEST(SpecWriteBufferEdge, ReadAfterCommitSeesPublishedValue) {
  int64_t Cell = 1;
  SpecWriteBuffer Buf;
  Buf.write(&Cell, int64_t{2});
  Buf.commit();
  EXPECT_TRUE(Buf.empty());
  // The cleared buffer starts a fresh generation: the read must miss
  // the dead table slot, hit shared memory, and log a new read.
  EXPECT_EQ(Buf.read(&Cell), 2);
  EXPECT_EQ(Buf.numWrites(), 0u);
  EXPECT_EQ(Buf.numLoggedReads(), 1u);
  EXPECT_TRUE(Buf.validateReads());
}

TEST(SpecWriteBufferEdge, AbaChangedThenRestoredValidatesClean) {
  // Intended paper semantics (value-based conflict detection, section
  // 3): validation compares *values*, not version counters. A
  // concurrent writer that changes a location and restores the observed
  // value before this chunk commits is serializable, so the chunk must
  // commit -- there is deliberately no ABA detection here.
  int64_t Balance = 100;
  SpecWriteBuffer Buf;
  EXPECT_EQ(Buf.read(&Balance), 100);
  Buf.write(&Balance, int64_t{105});
  Balance = 250; // Another chunk's transient update...
  Balance = 100; // ...rolled back before this chunk resolves.
  EXPECT_TRUE(Buf.validateReads()) << "ABA must validate clean";
  Buf.commit();
  EXPECT_EQ(Balance, 105);
}

TEST(SpecWriteBufferEdge, GrowthRetainsCapacityAcrossClear) {
  std::vector<int64_t> Cells(100, 0);
  SpecWriteBuffer Buf;
  EXPECT_TRUE(Buf.usesInlineStorage());
  for (size_t I = 0; I < Cells.size(); ++I)
    Buf.write(&Cells[I], static_cast<int64_t>(I));
  EXPECT_FALSE(Buf.usesInlineStorage())
      << "100 live addresses must outgrow the inline table";
  EXPECT_GE(Buf.capacity(), 256u) << "1/2 load factor over 100 entries";
  const uint64_t Grown = Buf.rehashes();
  EXPECT_GT(Grown, 0u);

  Buf.clear();
  EXPECT_TRUE(Buf.empty());
  EXPECT_EQ(Buf.capacity(), 256u) << "clear must retain capacity";

  // Refilling the same working set after clear() must be rehash-free.
  for (size_t I = 0; I < Cells.size(); ++I)
    Buf.write(&Cells[I], static_cast<int64_t>(I + 1));
  EXPECT_EQ(Buf.rehashes(), Grown) << "reuse must not grow again";
  Buf.commit();
  for (size_t I = 0; I < Cells.size(); ++I)
    EXPECT_EQ(Cells[I], static_cast<int64_t>(I + 1));
}
