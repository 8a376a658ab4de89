//===- workloads/Sjeng.cpp - Chess static evaluation ----------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Sjeng.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

using namespace spice;
using namespace spice::workloads;

// Piece-square bonus table (one ring-distance-from-center profile reused
// for all kinds, scaled by kind).
static int64_t pieceSquareBonus(PieceKind Kind, int64_t Square) {
  int64_t File = Square & 7;
  int64_t Rank = (Square >> 3) & 7;
  int64_t CenterDist =
      std::max(File < 4 ? 3 - File : File - 4, Rank < 4 ? 3 - Rank : Rank - 4);
  int64_t Base = 12 - 4 * CenterDist;
  return Base * (static_cast<int64_t>(Kind) + 1);
}

static int64_t materialValue(PieceKind Kind) {
  switch (Kind) {
  case PieceKind::Pawn:
    return 100;
  case PieceKind::Knight:
    return 310;
  case PieceKind::Bishop:
    return 325;
  case PieceKind::Rook:
    return 500;
  case PieceKind::Queen:
    return 900;
  case PieceKind::King:
    return 0;
  }
  return 0;
}

uint64_t SjengBoard::costOf(PieceKind Kind) {
  switch (Kind) {
  case PieceKind::Pawn:
    return 2;
  case PieceKind::Knight:
    return 9;
  case PieceKind::Bishop:
    return 14;
  case PieceKind::Rook:
    return 15;
  case PieceKind::Queen:
    return 28;
  case PieceKind::King:
    return 10;
  }
  return 1;
}

/// Deterministic pseudo-occupancy used by the ray loops: whether a ray
/// from a slider is blocked at distance D depends on the piece and the
/// running scan state, mimicking board lookups without a global board.
static bool rayBlocked(const Piece &P, int64_t Dir, int64_t Dist,
                       int64_t RunningKey) {
  uint64_t H = static_cast<uint64_t>(P.Square * 0x9e3779b9 + Dir * 0x85ebca6b +
                                     Dist * 0xc2b2ae35 + P.Flags) ^
               static_cast<uint64_t>(RunningKey >> 17);
  H *= 0xff51afd7ed558ccdULL;
  return (H >> 61) == 0; // ~1/8 per step.
}

void workloads::sjengEvalStep(SjengLiveIn &LI, SjengScore &S) {
  Piece &P = *LI.Cursor;
  int64_t Sign = P.Color == 0 ? 1 : -1;
  int64_t File = P.Square & 7;

  S.Material += Sign * materialValue(P.Kind);
  S.Positional += Sign * pieceSquareBonus(P.Kind, P.Square);

  switch (P.Kind) {
  case PieceKind::Pawn: {
    // Pawn-structure tracking: doubled-pawn penalty via the file masks.
    int64_t Bit = 1ll << File;
    if (P.Color == 0) {
      if (LI.PawnMask & Bit)
        S.Positional -= 12; // Doubled.
      LI.PawnMask |= Bit;
    } else {
      if (LI.OppPawnMask & Bit)
        S.Positional += 12;
      LI.OppPawnMask |= Bit;
    }
    break;
  }
  case PieceKind::Knight: {
    // Eight hops; each may fall off the board.
    static const int64_t Hops[8] = {17, 15, 10, 6, -17, -15, -10, -6};
    int64_t Mob = 0;
    for (int64_t Hop : Hops) {
      int64_t To = P.Square + Hop;
      if (To >= 0 && To < 64 && ((To & 7) - File) * ((To & 7) - File) <= 4)
        ++Mob;
    }
    S.Mobility += Sign * 4 * Mob;
    LI.Development += (P.Square >> 3) != (P.Color == 0 ? 0 : 7);
    break;
  }
  case PieceKind::Bishop:
  case PieceKind::Rook:
  case PieceKind::Queen: {
    // Ray scans: bishops 4 diagonals, rooks 4 orthogonals, queens all 8.
    int64_t First = P.Kind == PieceKind::Rook ? 4 : 0;
    int64_t Last = P.Kind == PieceKind::Bishop ? 4 : 8;
    int64_t Mob = 0;
    for (int64_t Dir = First; Dir != Last; ++Dir) {
      for (int64_t Dist = 1; Dist <= 7; ++Dist) {
        if (rayBlocked(P, Dir, Dist, LI.RunningKey))
          break;
        ++Mob;
        LI.AttackMap ^= (P.Square * 8 + Dir) << (Dist & 7);
      }
    }
    S.Mobility += Sign * 2 * Mob;
    if (P.Kind != PieceKind::Queen)
      LI.Development += (P.Square >> 3) != (P.Color == 0 ? 0 : 7);
    break;
  }
  case PieceKind::King: {
    // Tropism: accumulate pressure from the attack map near the king.
    int64_t Pressure = (LI.AttackMap >> (P.Square & 31)) & 0xff;
    S.KingSafety -= Sign * Pressure;
    LI.KingTropism += Pressure;
    break;
  }
  }

  LI.Phase += static_cast<int64_t>(P.Kind);
  // Multiplied in uint64_t: the key wraps, which int64_t must not.
  const uint64_t Mixed =
      static_cast<uint64_t>(LI.RunningKey) * 0x100000001b3ull;
  LI.RunningKey = static_cast<int64_t>(Mixed) ^ (P.Square + 64 * P.Flags);
  LI.Cursor = P.Next;
}

SjengBoard::SjengBoard(size_t N, uint64_t Seed) : Rng(Seed) {
  assert(N >= 2 && "board needs pieces");
  // Kind distribution roughly like a middlegame: half pawns. Real engines
  // keep piece lists grouped by type, so the expensive sliders cluster at
  // the front -- which is exactly what makes iteration-count chunking
  // unbalanced and the cost-weighted work metric worthwhile.
  std::vector<PieceKind> Kinds;
  Kinds.reserve(N);
  Kinds.push_back(PieceKind::King);
  Kinds.push_back(PieceKind::King);
  for (size_t I = 2; I != N; ++I) {
    uint64_t R = Rng.nextBelow(16);
    if (R < 8)
      Kinds.push_back(PieceKind::Pawn);
    else if (R < 11)
      Kinds.push_back(PieceKind::Knight);
    else if (R < 13)
      Kinds.push_back(PieceKind::Bishop);
    else if (R < 15)
      Kinds.push_back(PieceKind::Rook);
    else
      Kinds.push_back(PieceKind::Queen);
  }
  std::sort(Kinds.begin(), Kinds.end(), [](PieceKind A, PieceKind B) {
    return costOf(A) > costOf(B);
  });
  Piece *Prev = nullptr;
  for (size_t I = 0; I != N; ++I) {
    Arena.push_back({});
    Piece &P = Arena.back();
    P.Kind = Kinds[I];
    P.Square = static_cast<int64_t>(Rng.nextBelow(64));
    P.Color = static_cast<int64_t>(I & 1);
    P.Flags = Rng.nextInRange(0, 255);
    P.OnList = true;
    if (Prev)
      Prev->Next = &P;
    else
      Head = &P;
    Prev = &P;
  }
  Size = N;
}

SjengLiveIn SjengBoard::start() const {
  SjengLiveIn LI;
  LI.Cursor = Head;
  return LI;
}

void SjengBoard::mutate(double MutateProb, unsigned Count) {
  if (!Rng.nextBool(MutateProb))
    return;
  for (unsigned I = 0; I != Count; ++I) {
    uint64_t Steps = Rng.nextBelow(Size);
    Piece *P = Head;
    for (uint64_t S = 0; S != Steps && P->Next; ++S)
      P = P->Next;
    // A move: the piece changes square (kings stay put to keep the model
    // simple); flags track castling/en-passant-like state.
    if (P->Kind != PieceKind::King)
      P->Square = static_cast<int64_t>(Rng.nextBelow(64));
    P->Flags = Rng.nextInRange(0, 255);
  }
}

SjengScore SjengBoard::evalReference() const {
  SjengLiveIn LI;
  LI.Cursor = Head;
  SjengScore S;
  while (LI.Cursor)
    sjengEvalStep(LI, S);
  return S;
}
