//===- tests/PnmlReference.h - The DOM-building PNML reader -----*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reader parsePnml used before its flat-table and one-pass
/// successors: it builds a DOM, then imports from it.  The differential suite requires the
/// production reader to agree with it on every verdict, diagnostic and
/// net (docs/INTEROP.md, "The hardened reader").
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_TESTS_PNMLREFERENCE_H
#define SDSP_TESTS_PNMLREFERENCE_H

#include "petri/Pnml.h"

namespace sdsp {

/// parsePnml's contract, implemented by the old DOM reader.
Expected<PnmlNet> parsePnmlReference(const std::string &Text);

} // namespace sdsp

#endif // SDSP_TESTS_PNMLREFERENCE_H
