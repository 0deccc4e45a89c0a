// Canonical structural plan fingerprints.
//
// PlanFingerprint hashes the *structure* of an ExecPlan — operators,
// columns, literals, and the variable-reference shape — into a
// deterministic 64-bit value: two compilations of structurally identical
// queries (different spellings, different quoting, literal-first vs
// column-first comparisons, or the same subtree hanging off different
// parent variables) produce the same fingerprint in every process run.
// Nothing address- or allocation-dependent is hashed, so the value is
// stable across runs and ASLR, and can key caches that outlive any one
// plan object.
//
// Canonicalization applied on the fly (the plan itself is not modified):
//   - literal-first comparisons are mirrored (`'VB' = a.name` hashes as
//     `a.name = 'VB'`), matching the optimizer's NormalizeOrientation;
//   - outer references *escaping the hashed root* (depth-0 correlation
//     variables of an EXISTS subtree) are alpha-renamed by first
//     appearance, so a subtree correlating on parent var 3 equals the
//     same subtree correlating on parent var 0. Outer references of
//     nested subplans target variables *inside* the hashed tree and are
//     structural, so they hash as-is. Local variable indices are
//     positional (the compiler assigns them deterministically) and hash
//     as-is too.
//
// PlanEquals walks two plans in lockstep under the same canonicalization
// — the collision check run before two fingerprint-equal plans are
// allowed to share a cache entry. Fingerprint equality is necessary but
// not sufficient; PlanEquals is the authority.
//
// The service fingerprints the *compiled* (unresolved) plan to key the
// prepared-plan cache (corpus-independent, so the same value works across
// corpora).

#ifndef LPATHDB_SQL_FINGERPRINT_H_
#define LPATHDB_SQL_FINGERPRINT_H_

#include <cstdint>

#include "plan/exec_plan.h"

namespace lpath {
namespace sql {

/// Deterministic structural hash of `plan` (see file comment).
uint64_t PlanFingerprint(const ExecPlan& plan);

/// Structural equality under the same canonicalization as PlanFingerprint.
/// Used to verify fingerprint matches before sharing plans.
bool PlanEquals(const ExecPlan& a, const ExecPlan& b);

}  // namespace sql
}  // namespace lpath

#endif  // LPATHDB_SQL_FINGERPRINT_H_
