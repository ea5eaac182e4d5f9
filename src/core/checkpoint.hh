/**
 * @file
 * collectionFingerprint: the identity of a collection campaign.
 *
 * Every (site, run) cell is a pure function of (CollectionConfig, site,
 * run), so two campaigns whose inputs hash equal collect bit-identical
 * traces. The pipeline keys its Collect stage, and through it every
 * collection chunk it persists in the stage cache (core/stage_cache.hh),
 * by this fingerprint: a rerun with the same configuration replays the
 * chunks a killed run committed, and a changed seed, fault plan or
 * browser simply misses.
 */

#ifndef BF_CORE_CHECKPOINT_HH
#define BF_CORE_CHECKPOINT_HH

#include <cstdint>
#include <span>

#include "attack/attacker.hh"

namespace bigfish::core {

struct CollectionConfig;

/**
 * Deterministic fingerprint of everything a collected trace's content
 * depends on: the full CollectionConfig (signal faults included, IO
 * faults excluded — they never alter content), the catalog geometry and
 * the attacker set. Two configurations hash equal iff their collections
 * are interchangeable.
 */
[[nodiscard]] std::uint64_t
collectionFingerprint(const CollectionConfig &config,
                      std::uint64_t catalog_seed, int num_sites,
                      int open_world_extra,
                      std::span<const attack::AttackerKind> attackers);

} // namespace bigfish::core

#endif // BF_CORE_CHECKPOINT_HH
