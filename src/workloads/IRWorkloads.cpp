//===- workloads/IRWorkloads.cpp - The four paper loops in IR -------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/IRWorkloads.h"

#include "ir/IRBuilder.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <vector>

using namespace spice;
using namespace spice::workloads;
using namespace spice::ir;

//===----------------------------------------------------------------------===//
// OtterIR: find_lightest_cl
//===----------------------------------------------------------------------===//

Function *OtterIR::build(Module &M) {
  Result = M.createGlobal("otter.result", 2);
  Function *F = M.createFunction("find_lightest");
  Argument *HeadArg = F->addArgument("head");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  IRBuilder B(M, Entry);
  B.createBr(Header);

  B.setInsertBlock(Header);
  Instruction *C = B.createPhi("c");
  Instruction *Wm = B.createPhi("wm");
  Instruction *Cm = B.createPhi("cm");
  Instruction *NotNull = B.createICmpNe(C, B.getInt(0));
  B.createCondBr(NotNull, Body, Exit);

  B.setInsertBlock(Body);
  Instruction *W = B.createLoad(C, "w");
  Instruction *Less = B.createICmpSLt(W, Wm, "less");
  Instruction *Wm2 = B.createSelect(Less, W, Wm, "wm2");
  Instruction *Cm2 = B.createSelect(Less, C, Cm, "cm2");
  Instruction *CNext = B.createLoad(B.createAdd(C, B.getInt(1)), "cnext");
  B.createBr(Header);

  C->addPhiIncoming(HeadArg, Entry);
  C->addPhiIncoming(CNext, Body);
  Wm->addPhiIncoming(B.getInt(INT64_MAX), Entry);
  Wm->addPhiIncoming(Wm2, Body);
  Cm->addPhiIncoming(B.getInt(0), Entry);
  Cm->addPhiIncoming(Cm2, Body);

  B.setInsertBlock(Exit);
  B.createStore(Result, Wm);
  B.createStore(B.createAdd(Result, B.getInt(1)), Cm);
  B.createRet(Wm);
  F->renumber();
  return F;
}

void OtterIR::initData(vm::Memory &Mem) {
  int64_t Prev = 0;
  for (size_t I = 0; I != N; ++I) {
    auto Node = static_cast<int64_t>(Mem.allocate(2));
    Mem.store(Node, Rng.nextInRange(0, 999'999));
    Mem.store(Node + 1, 0);
    if (Prev)
      Mem.store(Prev + 1, Node);
    else
      Head = Node;
    Prev = Node;
  }
  LiveCount = N;
}

std::vector<int64_t> OtterIR::invocationArgs(const vm::Memory &) {
  return {Head};
}

void OtterIR::mutate(vm::Memory &Mem) {
  // Remove the minimum found by the previous invocation (result[1]).
  int64_t Min = Mem.load(Mem.addressOf(Result) + 1);
  if (Min != 0) {
    if (Head == Min) {
      Head = Mem.load(Min + 1);
      --LiveCount;
    } else {
      for (int64_t P = Head; P != 0; P = Mem.load(P + 1))
        if (Mem.load(P + 1) == Min) {
          Mem.store(P + 1, Mem.load(Min + 1));
          --LiveCount;
          break;
        }
    }
  }
  // Random unlinks: the churn that actually deletes memoized nodes.
  for (unsigned K = 0; K != RandomRemovalsPerInvocation && LiveCount > 2;
       ++K) {
    uint64_t Steps = Rng.nextBelow(LiveCount - 1);
    if (Steps == 0) {
      Head = Mem.load(Head + 1);
    } else {
      int64_t P = Head;
      for (uint64_t S = 1; S < Steps && Mem.load(Mem.load(P + 1) + 1) != 0;
           ++S)
        P = Mem.load(P + 1);
      Mem.store(P + 1, Mem.load(Mem.load(P + 1) + 1));
    }
    --LiveCount;
  }
  for (unsigned K = 0; K != InsertsPerInvocation; ++K) {
    auto Node = static_cast<int64_t>(Mem.allocate(2));
    Mem.store(Node, Rng.nextInRange(0, 999'999));
    uint64_t Steps = Rng.nextBelow(LiveCount + 1);
    if (Steps == 0 || Head == 0) {
      Mem.store(Node + 1, Head);
      Head = Node;
    } else {
      int64_t P = Head;
      for (uint64_t S = 1; S < Steps && Mem.load(P + 1) != 0; ++S)
        P = Mem.load(P + 1);
      Mem.store(Node + 1, Mem.load(P + 1));
      Mem.store(P + 1, Node);
    }
    ++LiveCount;
  }
}

int64_t OtterIR::resultDigest(const vm::Memory &Mem) const {
  // Addresses differ between twin memories (the transformed module lays
  // out extra globals), so digest the argmin by its list position.
  uint64_t R = Mem.addressOf(Result);
  int64_t MinAddr = Mem.load(R + 1);
  int64_t Position = -1, Idx = 0;
  for (int64_t P = Head; P != 0; P = Mem.load(P + 1), ++Idx)
    if (P == MinAddr) {
      Position = Idx;
      break;
    }
  return Mem.load(R) * 1315423911 + Position;
}

//===----------------------------------------------------------------------===//
// KsIR: FindMaxGp inner loop
//===----------------------------------------------------------------------===//

Function *KsIR::build(Module &M) {
  Result = M.createGlobal("ks.result", 2);
  DTable = M.createGlobal("ks.D", NumVerts);
  Function *F = M.createFunction("find_best_b");
  Argument *BHeadArg = F->addArgument("bhead");
  Argument *ABase = F->addArgument("abase");
  Argument *AD = F->addArgument("aD");

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *ScanH = F->createBlock("scan_h");
  BasicBlock *ScanB = F->createBlock("scan_b");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");

  IRBuilder B(M, Entry);
  Instruction *Deg = B.createLoad(ABase, "deg");
  B.createBr(Header);

  B.setInsertBlock(Header);
  Instruction *Bp = B.createPhi("b");
  Instruction *Bg = B.createPhi("bestgain");
  Instruction *Bb = B.createPhi("bestb");
  Instruction *NotNull = B.createICmpNe(Bp, B.getInt(0));
  B.createCondBr(NotNull, Body, Exit);

  B.setInsertBlock(Body);
  Instruction *Vid = B.createLoad(Bp, "vid");
  Instruction *Dv = B.createLoad(B.createAdd(DTable, Vid), "dv");
  B.createBr(ScanH);

  // Linear scan of a's adjacency for w(a, vid): the branchy inner work.
  B.setInsertBlock(ScanH);
  Instruction *K = B.createPhi("k");
  Instruction *Wacc = B.createPhi("w");
  Instruction *InScan = B.createICmpSLt(K, Deg);
  B.createCondBr(InScan, ScanB, Latch);

  B.setInsertBlock(ScanB);
  Instruction *EntryAddr = B.createAdd(
      B.createAdd(ABase, B.getInt(1)), B.createMul(K, B.getInt(2)));
  Instruction *To = B.createLoad(EntryAddr, "to");
  Instruction *WCand = B.createLoad(B.createAdd(EntryAddr, B.getInt(1)));
  Instruction *IsHit = B.createICmpEq(To, Vid);
  Instruction *W2 = B.createSelect(IsHit, WCand, Wacc, "w2");
  Instruction *K2 = B.createAdd(K, B.getInt(1), "k2");
  B.createBr(ScanH);
  K->addPhiIncoming(B.getInt(0), Body);
  K->addPhiIncoming(K2, ScanB);
  Wacc->addPhiIncoming(B.getInt(0), Body);
  Wacc->addPhiIncoming(W2, ScanB);

  B.setInsertBlock(Latch);
  Instruction *Gain = B.createSub(B.createAdd(AD, Dv),
                                  B.createMul(B.getInt(2), Wacc), "gain");
  Instruction *Better = B.createICmpSGt(Gain, Bg, "better");
  Instruction *Bg2 = B.createSelect(Better, Gain, Bg, "bg2");
  Instruction *Bb2 = B.createSelect(Better, Bp, Bb, "bb2");
  Instruction *BNext = B.createLoad(B.createAdd(Bp, B.getInt(1)), "bnext");
  B.createBr(Header);

  Bp->addPhiIncoming(BHeadArg, Entry);
  Bp->addPhiIncoming(BNext, Latch);
  Bg->addPhiIncoming(B.getInt(INT64_MIN), Entry);
  Bg->addPhiIncoming(Bg2, Latch);
  Bb->addPhiIncoming(B.getInt(0), Entry);
  Bb->addPhiIncoming(Bb2, Latch);

  B.setInsertBlock(Exit);
  B.createStore(Result, Bg);
  B.createStore(B.createAdd(Result, B.getInt(1)), Bb);
  B.createRet(Bg);
  F->renumber();
  return F;
}

void KsIR::initData(vm::Memory &Mem) {
  // Candidate list: half the vertices (the "B side").
  NodeAddrs.clear();
  int64_t Prev = 0;
  BHead = 0;
  for (size_t V = NumVerts / 2; V != NumVerts; ++V) {
    auto Node = static_cast<int64_t>(Mem.allocate(2));
    Mem.store(Node, static_cast<int64_t>(V));
    Mem.store(Node + 1, 0);
    NodeAddrs.push_back(Node);
    if (Prev)
      Mem.store(Prev + 1, Node);
    else
      BHead = Node;
    Prev = Node;
  }
  LiveCount = NodeAddrs.size();
  // D values.
  uint64_t D = Mem.addressOf(DTable);
  for (size_t V = 0; V != NumVerts; ++V)
    Mem.store(D + V, Rng.nextInRange(-64, 64));
  // Fixed a's adjacency: [deg, (to, w) x deg].
  AdjBase = static_cast<int64_t>(Mem.allocate(1 + 2 * Degree));
  Mem.store(AdjBase, static_cast<int64_t>(Degree));
  for (unsigned E = 0; E != Degree; ++E) {
    Mem.store(AdjBase + 1 + 2 * E,
              static_cast<int64_t>(Rng.nextBelow(NumVerts)));
    Mem.store(AdjBase + 2 + 2 * E, Rng.nextInRange(1, 16));
  }
}

std::vector<int64_t> KsIR::invocationArgs(const vm::Memory &) {
  return {BHead, AdjBase, Rng.nextInRange(-64, 64)};
}

void KsIR::mutate(vm::Memory &Mem) {
  // The chosen partner (result[1]) leaves the candidate list, and a few D
  // values drift (the KL incremental update).
  int64_t Best = Mem.load(Mem.addressOf(Result) + 1);
  if (Best != 0 && LiveCount > 4) {
    if (BHead == Best) {
      BHead = Mem.load(Best + 1);
      --LiveCount;
    } else {
      for (int64_t P = BHead; P != 0; P = Mem.load(P + 1))
        if (Mem.load(P + 1) == Best) {
          Mem.store(P + 1, Mem.load(Best + 1));
          --LiveCount;
          break;
        }
    }
  }
  uint64_t D = Mem.addressOf(DTable);
  for (int K = 0; K != 8; ++K)
    Mem.store(D + Rng.nextBelow(NumVerts), Rng.nextInRange(-64, 64));
}

int64_t KsIR::resultDigest(const vm::Memory &Mem) const {
  // Digest the winning candidate by its vertex id, not its address.
  uint64_t R = Mem.addressOf(Result);
  int64_t Best = Mem.load(R + 1);
  int64_t Vid = Best ? Mem.load(Best) : -1;
  return Mem.load(R) * 2654435761 + Vid;
}

//===----------------------------------------------------------------------===//
// McfIR: refresh_potential
//===----------------------------------------------------------------------===//

Function *McfIR::build(Module &M) {
  Result = M.createGlobal("mcf.result", 1);
  Function *F = M.createFunction("refresh_potential");
  Argument *Start = F->addArgument("start");

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *ClimbH = F->createBlock("climb_h");
  BasicBlock *ClimbB = F->createBlock("climb_b");
  BasicBlock *ClimbD = F->createBlock("climb_d");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");

  IRBuilder B(M, Entry);
  B.createBr(Header);

  B.setInsertBlock(Header);
  Instruction *Node = B.createPhi("node");
  Instruction *Cs = B.createPhi("checksum");
  Instruction *NotNull = B.createICmpNe(Node, B.getInt(0));
  B.createCondBr(NotNull, Body, Exit);

  // potential[n] = orient==0 ? cost + potential[pred]
  //                          : potential[pred] - cost  (counted)
  B.setInsertBlock(Body);
  Instruction *Pred = B.createLoad(Node, "pred");
  Instruction *PPot = B.createLoad(B.createAdd(Pred, B.getInt(5)), "ppot");
  Instruction *Orient = B.createLoad(B.createAdd(Node, B.getInt(3)));
  Instruction *Cost = B.createLoad(B.createAdd(Node, B.getInt(4)));
  Instruction *IsUp = B.createICmpEq(Orient, B.getInt(0), "isup");
  Instruction *Pot =
      B.createSelect(IsUp, B.createAdd(Cost, PPot),
                     B.createSub(PPot, Cost), "pot");
  B.createStore(B.createAdd(Node, B.getInt(5)), Pot);
  Instruction *Inc = B.createSelect(IsUp, B.getInt(0), B.getInt(1));
  Instruction *Cs2 = B.createAdd(Cs, Inc, "cs2");
  // Advance: descend to the first child or climb to the next sibling.
  Instruction *Child = B.createLoad(B.createAdd(Node, B.getInt(1)));
  Instruction *HasChild = B.createICmpNe(Child, B.getInt(0));
  B.createCondBr(HasChild, Latch, ClimbH);

  B.setInsertBlock(ClimbH);
  Instruction *Cur = B.createPhi("cur");
  Instruction *CPred = B.createLoad(Cur, "cpred");
  Instruction *CSib = B.createLoad(B.createAdd(Cur, B.getInt(2)), "csib");
  Instruction *Keep = B.createAnd(B.createICmpNe(CPred, B.getInt(0)),
                                  B.createICmpEq(CSib, B.getInt(0)));
  B.createCondBr(Keep, ClimbB, ClimbD);
  B.setInsertBlock(ClimbB);
  B.createBr(ClimbH);
  Cur->addPhiIncoming(Node, Body);
  Cur->addPhiIncoming(CPred, ClimbB);
  B.setInsertBlock(ClimbD);
  Instruction *Sib = B.createLoad(B.createAdd(Cur, B.getInt(2)), "sib");
  B.createBr(Latch);

  B.setInsertBlock(Latch);
  Instruction *Next = B.createPhi("next");
  Next->addPhiIncoming(Child, Body);
  Next->addPhiIncoming(Sib, ClimbD);
  B.createBr(Header);

  Node->addPhiIncoming(Start, Entry);
  Node->addPhiIncoming(Next, Latch);
  Cs->addPhiIncoming(B.getInt(0), Entry);
  Cs->addPhiIncoming(Cs2, Latch);

  B.setInsertBlock(Exit);
  B.createStore(Result, Cs);
  B.createRet(Cs);
  F->renumber();
  return F;
}

void McfIR::initData(vm::Memory &Mem) {
  Nodes.clear();
  std::vector<unsigned> ChildCount(N, 0);
  for (size_t I = 0; I != N; ++I)
    Nodes.push_back(static_cast<int64_t>(Mem.allocate(6)));
  Root = Nodes[0];
  Mem.store(Root + 5, 1'000'000);
  for (size_t I = 1; I != N; ++I) {
    size_t Parent;
    do {
      uint64_t Window = std::min<uint64_t>(I, 1 + Rng.nextBelow(16));
      Parent = I - 1 - Rng.nextBelow(Window);
    } while (ChildCount[Parent] >= 4);
    ++ChildCount[Parent];
    int64_t Node = Nodes[I], Par = Nodes[Parent];
    Mem.store(Node, Par);                           // pred
    Mem.store(Node + 2, Mem.load(Par + 1));         // sibling = par.child
    Mem.store(Par + 1, Node);                       // par.child = node
    Mem.store(Node + 3, static_cast<int64_t>(Rng.nextBelow(2))); // orient
    Mem.store(Node + 4, Rng.nextInRange(1, 1000));  // cost
  }
  refreshHost(Mem); // Potentials start consistent.
}

int64_t McfIR::advanceHost(const vm::Memory &Mem, int64_t Node) const {
  if (int64_t Child = Mem.load(Node + 1))
    return Child;
  while (Mem.load(Node) != 0 && Mem.load(Node + 2) == 0)
    Node = Mem.load(Node);
  return Mem.load(Node + 2);
}

void McfIR::refreshHost(vm::Memory &Mem) {
  for (int64_t Node = Mem.load(Root + 1); Node != 0;
       Node = advanceHost(Mem, Node)) {
    int64_t PPot = Mem.load(Mem.load(Node) + 5);
    int64_t Cost = Mem.load(Node + 4);
    Mem.store(Node + 5,
              Mem.load(Node + 3) == 0 ? Cost + PPot : PPot - Cost);
  }
}

std::vector<int64_t> McfIR::invocationArgs(const vm::Memory &Mem) {
  return {Mem.load(Root + 1)};
}

void McfIR::mutate(vm::Memory &Mem) {
  for (unsigned K = 0; K != ArcChanges; ++K) {
    int64_t Node = Nodes[1 + Rng.nextBelow(Nodes.size() - 1)];
    Mem.store(Node + 4, Rng.nextInRange(1, 1000));
  }
  // Real mcf keeps potentials incrementally current between refreshes.
  refreshHost(Mem);
}

int64_t McfIR::resultDigest(const vm::Memory &Mem) const {
  // Hashed in uint64_t: the digest wraps, which int64_t must not.
  uint64_t Digest = static_cast<uint64_t>(Mem.load(Mem.addressOf(Result)));
  for (int64_t Node : Nodes)
    Digest = Digest * 1099511628211ull +
             static_cast<uint64_t>(Mem.load(Node + 5));
  return static_cast<int64_t>(Digest);
}

//===----------------------------------------------------------------------===//
// SjengIR: std_eval
//===----------------------------------------------------------------------===//

Function *SjengIR::build(Module &M) {
  Result = M.createGlobal("sjeng.result", 2);
  GlobalVariable *MatVal = M.createGlobal("sjeng.matval", 6);
  MatVal->setInitializer({100, 310, 325, 500, 900, 0});
  Function *F = M.createFunction("std_eval");
  Argument *HeadArg = F->addArgument("head");

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *PawnBB = F->createBlock("pawn");
  BasicBlock *MinorBB = F->createBlock("minor");
  BasicBlock *SliderBB = F->createBlock("slider");
  BasicBlock *RayH = F->createBlock("ray_h");
  BasicBlock *RayB = F->createBlock("ray_b");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");

  IRBuilder B(M, Entry);
  B.createBr(Header);

  // The 8 loop-carried live-ins: cursor + 7 scalar state registers.
  B.setInsertBlock(Header);
  Instruction *P = B.createPhi("p");
  Instruction *Mask1 = B.createPhi("pawnmask");
  Instruction *Mask2 = B.createPhi("opmask");
  Instruction *Dev = B.createPhi("dev");
  Instruction *Atk = B.createPhi("attack");
  Instruction *Trop = B.createPhi("tropism");
  Instruction *Phase = B.createPhi("phase");
  Instruction *Key = B.createPhi("runkey");
  // Reductions.
  Instruction *Mat = B.createPhi("material");
  Instruction *Pos = B.createPhi("positional");
  Instruction *NotNull = B.createICmpNe(P, B.getInt(0));
  B.createCondBr(NotNull, Body, Exit);

  B.setInsertBlock(Body);
  Instruction *Kind = B.createLoad(P, "kind");
  Instruction *Sq = B.createLoad(B.createAdd(P, B.getInt(1)), "sq");
  Instruction *Col = B.createLoad(B.createAdd(P, B.getInt(2)), "col");
  Instruction *Flg = B.createLoad(B.createAdd(P, B.getInt(3)), "flg");
  Instruction *Sign =
      B.createSelect(B.createICmpEq(Col, B.getInt(0)), B.getInt(1),
                     B.getInt(-1), "sign");
  Instruction *MatV = B.createLoad(B.createAdd(MatVal, Kind));
  Instruction *MatTerm = B.createMul(Sign, MatV, "matterm");
  Instruction *IsPawn = B.createICmpEq(Kind, B.getInt(0));
  B.createCondBr(IsPawn, PawnBB, MinorBB);

  // Pawn: doubled-pawn tracking via the file masks. Cheap.
  B.setInsertBlock(PawnBB);
  Instruction *FileBit =
      B.createShl(B.getInt(1), B.createAnd(Sq, B.getInt(7)));
  Instruction *IsWhite = B.createICmpEq(Col, B.getInt(0));
  Instruction *OwnMask = B.createSelect(IsWhite, Mask1, Mask2);
  Instruction *Doubled = B.createICmpNe(
      B.createAnd(OwnMask, FileBit), B.getInt(0), "doubled");
  Instruction *PawnPos =
      B.createSelect(Doubled, B.getInt(-12), B.getInt(4), "pawnpos");
  Instruction *NewM1 =
      B.createSelect(IsWhite, B.createOr(Mask1, FileBit), Mask1);
  Instruction *NewM2 =
      B.createSelect(IsWhite, Mask2, B.createOr(Mask2, FileBit));
  B.createBr(Latch);

  // Knight: a couple of ALU ops, medium cost.
  BasicBlock *KnightBB = F->createBlock("knight");
  B.setInsertBlock(MinorBB);
  Instruction *IsSlider = B.createICmpSGe(Kind, B.getInt(2));
  B.createCondBr(IsSlider, SliderBB, KnightBB);

  B.setInsertBlock(KnightBB);
  Instruction *KnightPos =
      B.createSub(B.getInt(12), B.createAnd(Sq, B.getInt(7)), "knpos");
  Instruction *KnightDev = B.createAdd(Dev, B.getInt(1), "kndev");
  B.createBr(Latch);

  // Slider: ray loop whose trip count grows with piece kind (bishop 14,
  // rook 21, queen 28 steps): the source of iteration-cost variance.
  B.setInsertBlock(SliderBB);
  Instruction *Steps = B.createMul(Kind, B.getInt(7), "steps");
  B.createBr(RayH);

  B.setInsertBlock(RayH);
  Instruction *K = B.createPhi("k");
  Instruction *AtkAcc = B.createPhi("atkacc");
  Instruction *MobAcc = B.createPhi("mobacc");
  Instruction *InRay = B.createICmpSLt(K, Steps);
  B.createCondBr(InRay, RayB, Latch);

  B.setInsertBlock(RayB);
  Instruction *Hash = B.createMul(B.createAdd(Sq, K), B.getInt(2654435761));
  Instruction *Blocked = B.createICmpEq(
      B.createAnd(B.createLShr(Hash, B.getInt(29)), B.getInt(7)),
      B.getInt(0));
  Instruction *Atk2 = B.createXor(
      AtkAcc, B.createShl(Sq, B.createAnd(K, B.getInt(7))), "atk2");
  Instruction *Mob2 = B.createAdd(
      MobAcc, B.createSelect(Blocked, B.getInt(0), B.getInt(2)), "mob2");
  Instruction *K2 = B.createAdd(K, B.getInt(1), "k2");
  B.createBr(RayH);
  K->addPhiIncoming(B.getInt(0), SliderBB);
  K->addPhiIncoming(K2, RayB);
  AtkAcc->addPhiIncoming(Atk, SliderBB);
  AtkAcc->addPhiIncoming(Atk2, RayB);
  MobAcc->addPhiIncoming(B.getInt(0), SliderBB);
  MobAcc->addPhiIncoming(Mob2, RayB);

  // Latch: join the three paths, update all live-ins, fold the score.
  B.setInsertBlock(Latch);
  Instruction *M1J = B.createPhi("m1j");
  Instruction *M2J = B.createPhi("m2j");
  Instruction *AtkJ = B.createPhi("atkj");
  Instruction *DevJ = B.createPhi("devj");
  Instruction *PosJ = B.createPhi("posj");

  // Trop and Phase feed back into their own update terms (king-tropism
  // pressure scales with accumulated pressure; the phase seasons the
  // running key), so they are genuine non-reduction live-ins -- giving
  // this loop the 8 speculated live-ins the paper reports for 458.sjeng.
  Instruction *TropTerm = B.createAnd(
      B.createLShr(AtkJ, B.createAnd(B.createAdd(Sq, Trop), B.getInt(31))),
      B.getInt(255), "tropterm");
  Instruction *Trop2 = B.createAdd(Trop, TropTerm, "trop2");
  Instruction *Phase2 = B.createAdd(Phase, Kind, "phase2");
  Instruction *Key2 = B.createXor(
      B.createMul(Key, B.getInt(1099511628211ll)),
      B.createAdd(B.createAdd(Sq, Phase),
                  B.createMul(B.getInt(64), Flg)), "key2");
  Instruction *Mat2 = B.createAdd(Mat, MatTerm, "mat2");
  Instruction *PosTerm = B.createMul(Sign, PosJ, "posterm");
  Instruction *Pos2 = B.createAdd(Pos, PosTerm, "pos2");
  Instruction *PNext = B.createLoad(B.createAdd(P, B.getInt(4)), "pnext");
  B.createBr(Header);

  M1J->addPhiIncoming(NewM1, PawnBB);
  M1J->addPhiIncoming(Mask1, KnightBB);
  M1J->addPhiIncoming(Mask1, RayH);
  M2J->addPhiIncoming(NewM2, PawnBB);
  M2J->addPhiIncoming(Mask2, KnightBB);
  M2J->addPhiIncoming(Mask2, RayH);
  AtkJ->addPhiIncoming(Atk, PawnBB);
  AtkJ->addPhiIncoming(Atk, KnightBB);
  AtkJ->addPhiIncoming(AtkAcc, RayH);
  DevJ->addPhiIncoming(Dev, PawnBB);
  DevJ->addPhiIncoming(KnightDev, KnightBB);
  DevJ->addPhiIncoming(Dev, RayH);
  PosJ->addPhiIncoming(PawnPos, PawnBB);
  PosJ->addPhiIncoming(KnightPos, KnightBB);
  PosJ->addPhiIncoming(MobAcc, RayH);

  P->addPhiIncoming(HeadArg, Entry);
  P->addPhiIncoming(PNext, Latch);
  Mask1->addPhiIncoming(B.getInt(0), Entry);
  Mask1->addPhiIncoming(M1J, Latch);
  Mask2->addPhiIncoming(B.getInt(0), Entry);
  Mask2->addPhiIncoming(M2J, Latch);
  Dev->addPhiIncoming(B.getInt(0), Entry);
  Dev->addPhiIncoming(DevJ, Latch);
  Atk->addPhiIncoming(B.getInt(0), Entry);
  Atk->addPhiIncoming(AtkJ, Latch);
  Trop->addPhiIncoming(B.getInt(0), Entry);
  Trop->addPhiIncoming(Trop2, Latch);
  Phase->addPhiIncoming(B.getInt(0), Entry);
  Phase->addPhiIncoming(Phase2, Latch);
  Key->addPhiIncoming(B.getInt(0), Entry);
  Key->addPhiIncoming(Key2, Latch);
  Mat->addPhiIncoming(B.getInt(0), Entry);
  Mat->addPhiIncoming(Mat2, Latch);
  Pos->addPhiIncoming(B.getInt(0), Entry);
  Pos->addPhiIncoming(Pos2, Latch);

  B.setInsertBlock(Exit);
  B.createStore(Result, Mat);
  B.createStore(B.createAdd(Result, B.getInt(1)), Pos);
  B.createRet(Mat);
  F->renumber();
  return F;
}

void SjengIR::initData(vm::Memory &Mem) {
  Pieces.clear();
  int64_t Prev = 0;
  for (size_t I = 0; I != N; ++I) {
    auto Piece = static_cast<int64_t>(Mem.allocate(5));
    uint64_t R = Rng.nextBelow(16);
    int64_t Kind;
    if (R < 8)
      Kind = 0; // pawn
    else if (R < 11)
      Kind = 1; // knight
    else if (R < 13)
      Kind = 2; // bishop
    else if (R < 15)
      Kind = 3; // rook
    else
      Kind = 4; // queen
    Mem.store(Piece, Kind);
    Mem.store(Piece + 1, static_cast<int64_t>(Rng.nextBelow(64)));
    Mem.store(Piece + 2, static_cast<int64_t>(I & 1));
    Mem.store(Piece + 3, Rng.nextInRange(0, 255));
    Mem.store(Piece + 4, 0);
    Pieces.push_back(Piece);
    if (Prev)
      Mem.store(Prev + 4, Piece);
    else
      Head = Piece;
    Prev = Piece;
  }
}

std::vector<int64_t> SjengIR::invocationArgs(const vm::Memory &) {
  return {Head};
}

void SjengIR::mutate(vm::Memory &Mem) {
  if (!Rng.nextBool(MutateProb))
    return;
  int64_t Piece =
      Pieces[static_cast<size_t>(Rng.nextBelow(Pieces.size()))];
  Mem.store(Piece + 1, static_cast<int64_t>(Rng.nextBelow(64)));
  Mem.store(Piece + 3, Rng.nextInRange(0, 255));
}

int64_t SjengIR::resultDigest(const vm::Memory &Mem) const {
  uint64_t R = Mem.addressOf(Result);
  return Mem.load(R) * 40503 + Mem.load(R + 1);
}
