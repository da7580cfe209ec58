/**
 * @file
 * Health-aware replanning of a multi-chip topology.
 *
 * When a chip inside a tp=/pp= group fails, the surviving fleet is
 * the same design with the failed axis halved: a tp=4 all-reduce
 * group loses a shard pair and re-forms as tp=2, a pp=4 pipeline
 * re-partitions its layers over 2 stages. degradedSpec()
 * performs that rewrite on the registry's spec grammar
 * (`name[:key=value,...]`, registry.hpp) so the degraded accelerator
 * is built through the exact same Registry::make() path — and priced
 * through the same ExecutionPlan/ShapeTable machinery — as the healthy
 * one. ServingOptions::degradedAccel consumes the result.
 *
 * Halving (not decrementing) keeps the rewrite always constructible:
 * every divisibility constraint a power-of-two axis satisfied (tp
 * divides heads, layers >= pp) still holds at half the degree, and
 * the halved group is what a real collective re-forms as (the failed
 * chip's pair is excised whole).
 *
 * The rewrite also drops knobs the surviving topology can no longer
 * accept — the registry rejects silent no-ops by presence (the
 * "requires" column of its topology table), so a degraded spec that
 * kept `mb=` at pp=1 or `linkgbs=` with no fabric would refuse to
 * build. A single-chip spec has no degraded form:
 * degradedSpec() returns "" and the caller treats the fleet as
 * non-redundant (a chip failure is an outage or fatal).
 */
#pragma once

#include <string>

namespace mcbp::engine {

/**
 * Spec of the surviving topology after one chip failure: the highest
 * parallel axis (tp2 first — a failed chip excises its whole inner
 * tp= group from the outer ring — then tp, then pp) halved, with
 * knobs the smaller topology cannot accept (axes at 1, `mb=` without
 * a pipeline, link knobs without a fabric, tier-2 link knobs without
 * a boundary fabric) dropped. `dp=` and `route=` pass through
 * verbatim: the replica fleet reroutes around a dead replica rather
 * than shrinking one, so dp= alone is no intra-replica redundancy.
 * Returns "" when @p spec has nothing to fail over to (tp2, tp and
 * pp all absent or 1). Defined in registry.cpp next to the topology
 * knob table, on the same parser as Registry::make(): fatal() on a
 * malformed spec, a repeated key or a tp2/tp/pp value that is not a
 * count.
 */
std::string degradedSpec(const std::string &spec);

} // namespace mcbp::engine
