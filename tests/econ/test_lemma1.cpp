// Lemma 1 of the paper: under smoothness/convexity conditions on D,
// the CSP's revenue-maximizing price p*(t) is strictly increasing in
// the termination fee t. Verified numerically across demand families
// and fee grids.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "econ/pricing_models.hpp"

namespace poc::econ {
namespace {

struct Lemma1Case {
    std::string label;
    std::shared_ptr<const DemandCurve> demand;
    double t_max;
};

// Print the label only. Without this gtest dumps the raw bytes of the
// struct, which hold heap addresses, and the discovered test names would
// change from build to build.
void PrintTo(const Lemma1Case& c, std::ostream* os) { *os << c.label; }

class Lemma1 : public ::testing::TestWithParam<Lemma1Case> {};

TEST_P(Lemma1, PriceResponseMonotoneNonDecreasing) {
    const auto& c = GetParam();
    const auto curve = price_response_curve(*c.demand, c.t_max, 41);
    for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
        EXPECT_LE(curve[i].second, curve[i + 1].second + 1e-4)
            << c.label << " at t=" << curve[i].first;
    }
}

TEST_P(Lemma1, StrictlyIncreasingWhereDemandSatisfiesConditions) {
    // The lemma's hypotheses (strictly decreasing, strictly convex,
    // vanishing D) hold for the exponential family everywhere; assert
    // strict growth there, and weak growth elsewhere (linear demand is
    // only weakly convex, so p can plateau after demand hits zero).
    const auto& c = GetParam();
    if (c.label != "exponential") return;
    const auto curve = price_response_curve(*c.demand, c.t_max, 21);
    for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
        EXPECT_LT(curve[i].second, curve[i + 1].second) << " at t=" << curve[i].first;
    }
}

TEST_P(Lemma1, HigherFeesNeverIncreaseServedDemand) {
    // Corollary the welfare argument needs: D(p*(t)) is non-increasing
    // in t, so social welfare decreases with fees.
    const auto& c = GetParam();
    const auto curve = price_response_curve(*c.demand, c.t_max, 21);
    double prev = c.demand->demand(curve.front().second);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        const double served = c.demand->demand(curve[i].second);
        EXPECT_LE(served, prev + 1e-6) << c.label << " at t=" << curve[i].first;
        prev = served;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, Lemma1,
    ::testing::Values(
        Lemma1Case{"linear", std::make_shared<LinearDemand>(100.0), 80.0},
        Lemma1Case{"exponential", std::make_shared<ExponentialDemand>(40.0), 120.0},
        Lemma1Case{"isoelastic", std::make_shared<IsoelasticDemand>(10.0, 2.5), 60.0},
        Lemma1Case{"logistic", std::make_shared<LogisticDemand>(50.0, 12.0), 90.0}));

}  // namespace
}  // namespace poc::econ
