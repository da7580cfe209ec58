/** @file Unit + property tests for bgpp/bgpp_predictor. */
#include <gtest/gtest.h>

#include "bgpp/bgpp_predictor.hpp"
#include "bgpp/topk_baseline.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "model/synthetic.hpp"
#include "reference_kernels.hpp"
#include "runnable_tiers.hpp"

namespace mcbp::bgpp {
namespace {

model::AttentionSet
makeSet(std::uint64_t seed, std::size_t s = 256, std::size_t d = 64,
        double conc = 0.12)
{
    Rng rng(seed);
    return model::synthesizeAttention(rng, s, d, conc);
}

BgppPredictor
makePredictor(const model::AttentionSet &set, double alpha = 0.55,
              std::size_t rounds = 4)
{
    BgppConfig cfg;
    cfg.alpha = alpha;
    cfg.rounds = rounds;
    cfg.logitScale = set.logitScale;
    return BgppPredictor(cfg);
}

TEST(Bgpp, PrunesTrivialKeys)
{
    model::AttentionSet set = makeSet(1);
    BgppResult r = makePredictor(set).predict(set.query, set.keys);
    EXPECT_LT(r.selected.size(), set.keys.rows() / 2);
    EXPECT_GE(r.selected.size(), 1u);
}

TEST(Bgpp, HighRecallAgainstExactTopk)
{
    for (std::uint64_t seed = 2; seed < 7; ++seed) {
        model::AttentionSet set = makeSet(seed);
        BgppResult r = makePredictor(set).predict(set.query, set.keys);
        TopkResult truth =
            exactTopk(set.query, set.keys, r.selected.size());
        EXPECT_GT(recall(r.selected, truth.selected), 0.8)
            << "seed " << seed;
    }
}

TEST(Bgpp, FetchesFewerBitsThanValueTopk)
{
    // The headline claim of Fig 5(e)(g): early termination cuts K traffic
    // below the 4-bit value-level prediction.
    model::AttentionSet set = makeSet(8, 1024);
    BgppResult r = makePredictor(set).predict(set.query, set.keys);
    TopkResult value =
        valueTopk(set.query, set.keys, r.selected.size());
    EXPECT_LT(r.bitsFetched, value.bitsFetched);
}

TEST(Bgpp, SurvivorsMonotoneNonIncreasing)
{
    model::AttentionSet set = makeSet(9);
    BgppResult r = makePredictor(set).predict(set.query, set.keys);
    for (std::size_t i = 1; i < r.survivorsPerRound.size(); ++i)
        EXPECT_LE(r.survivorsPerRound[i], r.survivorsPerRound[i - 1]);
}

TEST(Bgpp, AlphaControlsPruning)
{
    // Smaller alpha -> tighter threshold -> more pruning (section 6).
    model::AttentionSet set = makeSet(10);
    BgppResult strict =
        makePredictor(set, 0.3).predict(set.query, set.keys);
    BgppResult loose =
        makePredictor(set, 0.9).predict(set.query, set.keys);
    EXPECT_LE(strict.selected.size(), loose.selected.size());
}

TEST(Bgpp, MoreRoundsMorePruning)
{
    model::AttentionSet set = makeSet(11);
    BgppResult r1 = makePredictor(set, 0.55, 1).predict(set.query, set.keys);
    BgppResult r4 = makePredictor(set, 0.55, 4).predict(set.query, set.keys);
    EXPECT_LE(r4.selected.size(), r1.selected.size());
}

TEST(Bgpp, UniformScoresClockGate)
{
    // Identical keys: no gap, threshold below min, nothing pruned.
    Int8Matrix keys(32, 8, 3);
    std::vector<std::int8_t> q(8, 2);
    BgppConfig cfg;
    cfg.logitScale = 1.0; // gap in raw score units
    BgppPredictor predictor(cfg);
    BgppResult r = predictor.predict(q, keys);
    EXPECT_EQ(r.selected.size(), 32u);
    EXPECT_EQ(r.clockGatedRounds, r.roundsRun);
}

TEST(Bgpp, MinKeepFloorRespected)
{
    model::AttentionSet set = makeSet(12);
    BgppConfig cfg;
    cfg.alpha = 0.01; // prune brutally
    cfg.logitScale = set.logitScale * 100.0; // tiny gap
    cfg.minKeep = 5;
    BgppPredictor predictor(cfg);
    BgppResult r = predictor.predict(set.query, set.keys);
    EXPECT_GE(r.selected.size(), 5u);
}

TEST(Bgpp, EstimatesMatchFullPrecisionAfterAllRounds)
{
    // With 7 rounds and no pruning (alpha=1, huge radius through a tiny
    // logit scale) the bit-serial estimate equals the exact dot product.
    model::AttentionSet set = makeSet(13, 64);
    BgppConfig cfg;
    cfg.rounds = 7;
    cfg.alpha = 1.0;
    cfg.logitScale = 1e-9;
    BgppPredictor predictor(cfg);
    BgppResult r = predictor.predict(set.query, set.keys);
    TopkResult truth = exactTopk(set.query, set.keys, 1);
    for (std::size_t j = 0; j < set.keys.rows(); ++j)
        EXPECT_EQ(r.estimates[j], truth.estimates[j]) << "key " << j;
}

TEST(Bgpp, PredictMatchesPerElementReference)
{
    // Every BgppResult field, on every dispatch tier, against the
    // per-element loop: synthesized sets, full-range INT8 sets (-128
    // in the query and the keys), a brutal threshold that takes the
    // minKeep path, a per-round alpha schedule and all seven rounds.
    struct Case
    {
        model::AttentionSet set;
        BgppConfig cfg;
    };
    std::vector<Case> cases;
    for (const std::size_t d : {std::size_t{64}, std::size_t{33}}) {
        Case c{makeSet(31 + d, 300, d), {}};
        c.cfg.logitScale = c.set.logitScale;
        cases.push_back(c);
        c.cfg.rounds = 7;
        c.cfg.alphaSchedule = {0.3, 0.8, 0.5};
        cases.push_back(c);
        c.cfg.alphaSchedule.clear();
        c.cfg.alpha = 0.01;
        c.cfg.logitScale = c.set.logitScale * 100.0;
        c.cfg.minKeep = 40;
        cases.push_back(c);
    }
    Rng rng(37);
    for (const std::size_t d : {std::size_t{17}, std::size_t{128}}) {
        Case c;
        c.set.query.resize(d);
        for (auto &v : c.set.query)
            v = static_cast<std::int8_t>(rng.next());
        c.set.query[0] = -128;
        c.set.keys = Int8Matrix(257, d);
        for (std::size_t j = 0; j < c.set.keys.rows(); ++j)
            for (std::size_t i = 0; i < d; ++i)
                c.set.keys.at(j, i) =
                    rng.uniformInt(4) == 0 ? std::int8_t{-128}
                                           : static_cast<std::int8_t>(
                                                 rng.next());
        c.cfg.rounds = 7;
        c.cfg.logitScale = 1e-4;
        cases.push_back(c);
        c.cfg.alphaSchedule = {1.0, 0.2};
        c.cfg.minKeep = 100;
        cases.push_back(c);
    }
    bool min_keep_path = false, gated = false;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        const BgppResult want =
            bench::bgppPredictPerElement(c.cfg, c.set.query, c.set.keys);
        min_keep_path = min_keep_path ||
                        (c.cfg.minKeep > 1 &&
                         want.selected.size() == c.cfg.minKeep);
        gated = gated || want.clockGatedRounds > 0;
        for (const simd::Tier t : simd::runnableTiers()) {
            SCOPED_TRACE(::testing::Message()
                         << "case " << i << " on " << simd::tierName(t));
            simd::forceTier(t);
            const BgppResult got =
                BgppPredictor(c.cfg).predict(c.set.query, c.set.keys);
            EXPECT_EQ(got.selected, want.selected);
            EXPECT_EQ(got.estimates, want.estimates);
            EXPECT_EQ(got.bitsFetched, want.bitsFetched);
            EXPECT_EQ(got.macs, want.macs);
            EXPECT_EQ(got.roundsRun, want.roundsRun);
            EXPECT_EQ(got.clockGatedRounds, want.clockGatedRounds);
            EXPECT_EQ(got.survivorsPerRound, want.survivorsPerRound);
        }
        simd::resetTier();
    }
    EXPECT_TRUE(min_keep_path) << "no case took the minKeep path";
    EXPECT_TRUE(gated) << "no case clock-gated a round";
}

TEST(Bgpp, TrafficAccountingFirstRound)
{
    // Round 1 fetches sign+MSB of every key: 2 bits per element.
    model::AttentionSet set = makeSet(14, 128, 32);
    BgppConfig cfg;
    cfg.rounds = 1;
    cfg.logitScale = set.logitScale;
    BgppPredictor predictor(cfg);
    BgppResult r = predictor.predict(set.query, set.keys);
    EXPECT_EQ(r.bitsFetched, 128u * 32u * 2u);
}

TEST(Bgpp, AttentionSparsityHelper)
{
    BgppResult r;
    r.selected = {1, 2, 3};
    EXPECT_DOUBLE_EQ(BgppPredictor::attentionSparsity(r, 12), 0.75);
    EXPECT_DOUBLE_EQ(BgppPredictor::attentionSparsity(r, 0), 0.0);
}

TEST(Bgpp, AlphaScheduleOverridesScalar)
{
    // A schedule of all-0.9 must behave like scalar 0.9, and a schedule
    // tightening over rounds must prune at least as hard.
    model::AttentionSet set = makeSet(15);
    BgppConfig flat;
    flat.alpha = 0.9;
    flat.logitScale = set.logitScale;
    BgppConfig sched = flat;
    sched.alphaSchedule = {0.9, 0.9, 0.9, 0.9};
    BgppResult a = BgppPredictor(flat).predict(set.query, set.keys);
    BgppResult b = BgppPredictor(sched).predict(set.query, set.keys);
    EXPECT_EQ(a.selected, b.selected);

    BgppConfig tight = flat;
    tight.alphaSchedule = {0.9, 0.6, 0.4, 0.3};
    BgppResult c = BgppPredictor(tight).predict(set.query, set.keys);
    EXPECT_LE(c.selected.size(), a.selected.size());
}

TEST(Bgpp, ShortScheduleClampsToLast)
{
    model::AttentionSet set = makeSet(16);
    BgppConfig one_entry;
    one_entry.alpha = 0.1; // must be ignored
    one_entry.alphaSchedule = {0.7};
    one_entry.logitScale = set.logitScale;
    BgppConfig scalar;
    scalar.alpha = 0.7;
    scalar.logitScale = set.logitScale;
    EXPECT_EQ(BgppPredictor(one_entry)
                  .predict(set.query, set.keys)
                  .selected,
              BgppPredictor(scalar).predict(set.query, set.keys).selected);
}

TEST(Bgpp, BadScheduleFatal)
{
    BgppConfig cfg;
    cfg.alphaSchedule = {0.5, 1.5};
    EXPECT_THROW(BgppPredictor{cfg}, std::runtime_error);
}

TEST(Bgpp, InvalidConfigFatal)
{
    BgppConfig cfg;
    cfg.rounds = 0;
    EXPECT_THROW(BgppPredictor{cfg}, std::runtime_error);
    cfg = {};
    cfg.rounds = 8;
    EXPECT_THROW(BgppPredictor{cfg}, std::runtime_error);
    cfg = {};
    cfg.alpha = -0.1;
    EXPECT_THROW(BgppPredictor{cfg}, std::runtime_error);
    cfg = {};
    cfg.radius = 0.0;
    EXPECT_THROW(BgppPredictor{cfg}, std::runtime_error);
    cfg = {};
    cfg.minKeep = 0;
    EXPECT_THROW(BgppPredictor{cfg}, std::runtime_error);
}

} // namespace
} // namespace mcbp::bgpp
