// Tests for common utilities: RNG determinism, statistics helpers, the
// clock-ratio ticker, configuration validation and scheme presets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/numparse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace arinoc {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Xoshiro, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, ChanceMatchesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Accumulator, TracksMeanMinMax) {
  Accumulator a;
  a.add(2.0);
  a.add(4.0);
  a.add(6.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Geomean, MatchesClosedForm) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Geomean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Mean, Basic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
}

TEST(ClockRatio, IntegerRatio) {
  ClockRatio cr(2.0);
  int total = 0;
  for (int i = 0; i < 100; ++i) total += static_cast<int>(cr.ticks_this_cycle());
  EXPECT_EQ(total, 200);
}

TEST(ClockRatio, FractionalRatioAveragesOut) {
  ClockRatio cr(1.75);  // The GDDR5 : NoC clock ratio.
  int total = 0;
  for (int i = 0; i < 1000; ++i) total += static_cast<int>(cr.ticks_this_cycle());
  EXPECT_EQ(total, 1750);
}

TEST(ClockRatio, PerCycleTicksBounded) {
  ClockRatio cr(1.75);
  for (int i = 0; i < 100; ++i) {
    const auto t = cr.ticks_this_cycle();
    EXPECT_GE(t, 1u);
    EXPECT_LE(t, 2u);
  }
}

TEST(Config, DefaultsValid) {
  Config cfg;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, DerivedGeometry) {
  Config cfg;
  EXPECT_EQ(cfg.num_nodes(), 36u);
  EXPECT_EQ(cfg.num_ccs(), 28u);
  // 512-bit payload over 128-bit links: 1 header + 4 payload flits.
  EXPECT_EQ(cfg.reply_long_flits(), 5u);
  EXPECT_EQ(cfg.vc_depth_flits_reply(), 5u);
}

TEST(Config, WiderLinkShrinksLongPackets) {
  Config cfg;
  cfg.link_width_bits_reply = 256;
  EXPECT_EQ(cfg.reply_long_flits(), 3u);
}

TEST(Config, RejectsSpeedupAboveVcs) {
  Config cfg;
  cfg.injection_speedup = 5;
  cfg.num_vcs = 4;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, RejectsTinyNiQueue) {
  Config cfg;
  cfg.ni_queue_flits = 2;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, RejectsZeroMcs) {
  Config cfg;
  cfg.num_mcs = 0;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, RejectsNonFiniteReals) {
  // NaN passes every range comparison, so each real needs its own check.
  const std::pair<const char*, double Config::*> reals[] = {
      {"mem_clock_ratio", &Config::mem_clock_ratio},
      {"fault_corrupt_rate", &Config::fault_corrupt_rate},
      {"fault_link_stall_rate", &Config::fault_link_stall_rate},
      {"fault_port_fail_rate", &Config::fault_port_fail_rate},
      {"fault_credit_loss_rate", &Config::fault_credit_loss_rate},
      {"pace_scale", &Config::pace_scale},
      {"ol_write_frac", &Config::ol_write_frac},
      {"adm_rate", &Config::adm_rate},
      {"adm_throttle_factor", &Config::adm_throttle_factor},
      {"adm_throttle_occ", &Config::adm_throttle_occ},
      {"adm_shed_occ", &Config::adm_shed_occ},
      {"adm_recover_occ", &Config::adm_recover_occ},
  };
  for (const auto& [name, field] : reals) {
    for (const double bad : {std::nan(""), HUGE_VAL}) {
      Config cfg;
      cfg.*field = bad;
      EXPECT_NE(cfg.validate().find(std::string(name) + " must be finite"),
                std::string::npos)
          << name << " = " << bad;
    }
  }
}

TEST(Config, Table1MentionsKeyParameters) {
  Config cfg;
  const std::string t = cfg.table1();
  EXPECT_NE(t.find("FR-FCFS"), std::string::npos);
  EXPECT_NE(t.find("Diamond"), std::string::npos);
  EXPECT_NE(t.find("Greedy-then-oldest"), std::string::npos);
  EXPECT_NE(t.find("6x6"), std::string::npos);
}

TEST(SchemePresets, XYBaselineIsEnhancedNoAri) {
  const Config cfg = apply_scheme(Config{}, Scheme::kXYBaseline);
  EXPECT_EQ(cfg.routing, RoutingAlgo::kXY);
  EXPECT_EQ(cfg.reply_ni, NiArch::kEnhanced);
  EXPECT_EQ(cfg.injection_speedup, 1u);
  EXPECT_EQ(cfg.priority_levels, 1u);
}

TEST(SchemePresets, AdaAriEnablesAllThree) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  EXPECT_EQ(cfg.routing, RoutingAlgo::kMinAdaptive);
  EXPECT_EQ(cfg.reply_ni, NiArch::kSplitQueue);
  EXPECT_EQ(cfg.injection_speedup, 4u);
  EXPECT_EQ(cfg.priority_levels, 2u);
}

TEST(SchemePresets, AccSupplyOnlyAcceleratesSupply) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAccSupply);
  EXPECT_EQ(cfg.reply_ni, NiArch::kSplitQueue);
  EXPECT_EQ(cfg.injection_speedup, 1u);
  EXPECT_EQ(cfg.priority_levels, 1u);
}

TEST(SchemePresets, AccConsumeOnlyAcceleratesConsumption) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAccConsume);
  EXPECT_EQ(cfg.reply_ni, NiArch::kEnhanced);
  EXPECT_EQ(cfg.injection_speedup, 4u);
  EXPECT_EQ(cfg.priority_levels, 1u);
}

TEST(SchemePresets, MultiPortUsesExtraPorts) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAdaMultiPort);
  EXPECT_EQ(cfg.reply_ni, NiArch::kMultiPort);
  EXPECT_GE(cfg.multiport_ports, 2u);
}

TEST(SchemePresets, RawBaselineHasNarrowMcNiLink) {
  const Config cfg = apply_scheme(Config{}, Scheme::kRawBaseline);
  EXPECT_EQ(cfg.mc_ni_link, McNiLink::kNarrow);
  EXPECT_EQ(cfg.reply_ni, NiArch::kBaseline);
}

TEST(SchemePresets, SpeedupClampedByVcCount) {
  Config base;
  base.num_vcs = 2;
  const Config cfg = apply_scheme(base, Scheme::kAdaARI);
  EXPECT_EQ(cfg.injection_speedup, 2u);  // Eq. (2): S <= N_vc.
  EXPECT_EQ(cfg.validate(), "");
}

TEST(SchemeNames, AllDistinct) {
  std::set<std::string> names;
  for (Scheme s :
       {Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
        Scheme::kAdaMultiPort, Scheme::kAdaARI, Scheme::kAccSupply,
        Scheme::kAccConsume, Scheme::kAccBothNoPrio, Scheme::kRawBaseline}) {
    names.insert(scheme_name(s));
  }
  EXPECT_EQ(names.size(), 9u);
}

// ---------------------------------------------------------------- numparse

TEST(NumParse, UintAcceptsPlainDecimal) {
  std::string why;
  EXPECT_EQ(parse_uint("0", 10, &why), 0u);
  EXPECT_EQ(parse_uint("8000", UINT64_MAX, &why), 8000u);
  EXPECT_EQ(parse_uint("18446744073709551615", UINT64_MAX, &why),
            UINT64_MAX);
  EXPECT_EQ(parse_uint("4294967295", UINT32_MAX, &why), UINT32_MAX);
}

TEST(NumParse, UintRejectsSignJunkAndOverflow) {
  std::string why;
  EXPECT_FALSE(parse_uint("-5", UINT64_MAX, &why));
  EXPECT_NE(why.find("sign"), std::string::npos) << why;
  EXPECT_FALSE(parse_uint("+5", UINT64_MAX, &why));
  EXPECT_NE(why.find("sign"), std::string::npos) << why;
  EXPECT_FALSE(parse_uint("12x", UINT64_MAX, &why));
  EXPECT_NE(why.find("'x' at position 3"), std::string::npos) << why;
  EXPECT_FALSE(parse_uint("", UINT64_MAX, &why));
  EXPECT_FALSE(parse_uint(" 1", UINT64_MAX, &why));
  EXPECT_FALSE(parse_uint("1e3", UINT64_MAX, &why));
  EXPECT_FALSE(parse_uint("18446744073709551616", UINT64_MAX, &why));
  EXPECT_NE(why.find("out of range"), std::string::npos) << why;
  EXPECT_FALSE(parse_uint("4294967296", UINT32_MAX, &why));
  EXPECT_FALSE(parse_uint("7", 5, &why));
}

TEST(NumParse, RealAcceptsDecimalAndExponent) {
  std::string why;
  EXPECT_DOUBLE_EQ(*parse_real("5e-4", &why), 5e-4);
  EXPECT_DOUBLE_EQ(*parse_real("1.5", &why), 1.5);
  EXPECT_DOUBLE_EQ(*parse_real("0", &why), 0.0);
}

TEST(NumParse, RealRejectsSignJunkAndNonFinite) {
  std::string why;
  EXPECT_FALSE(parse_real("-0.1", &why));
  EXPECT_NE(why.find("sign"), std::string::npos) << why;
  EXPECT_FALSE(parse_real("1.5x", &why));
  EXPECT_NE(why.find("'x' at position 4"), std::string::npos) << why;
  EXPECT_FALSE(parse_real("abc", &why));
  EXPECT_FALSE(parse_real("", &why));
  EXPECT_FALSE(parse_real("inf", &why));
  EXPECT_FALSE(parse_real("nan", &why));
  EXPECT_NE(why.find("finite"), std::string::npos) << why;
  EXPECT_FALSE(parse_real("1e999", &why));
  EXPECT_NE(why.find("out of range"), std::string::npos) << why;
}

}  // namespace
}  // namespace arinoc
