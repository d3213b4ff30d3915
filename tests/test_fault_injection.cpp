// FaultInjector framework (support/fault_injection.hpp): spec parsing
// (Nth / always / probability / seeded, malformed rejection), per-site
// counter accounting (hits == fired + suppressed), seeded determinism of
// the probability mode, site registration/enumeration — including the
// seven production sites declared across exec/ — configure-replaces-state
// semantics, and the zero-cost disabled path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/batch_server.hpp"
#include "exec/engine_pool.hpp"
#include "exec/jit.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"

namespace cortex::support {
namespace {

// Sites owned by this test binary. Namespace scope, like production
// declarations, so they register at load time.
FaultSite g_alpha("test.alpha");
FaultSite g_beta("test.beta");

/// Disarms everything on scope exit so tests cannot leak armed sites
/// into each other (the injector is process-wide).
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

TEST(FaultInjectionTest, DisarmedSiteNeverFiresAndCountsNothing) {
  InjectorGuard guard;
  FaultInjector::instance().reset();
  EXPECT_FALSE(FaultInjector::instance().enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(g_alpha.fire());
  const auto s = FaultInjector::instance().stats("test.alpha");
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.fired, 0);
  EXPECT_EQ(s.suppressed, 0);
}

TEST(FaultInjectionTest, NthModeFiresExactlyOnceOnTheNthEvaluation) {
  InjectorGuard guard;
  FaultInjector::instance().configure("test.alpha=3");
  EXPECT_TRUE(FaultInjector::instance().enabled());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(g_alpha.fire());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  const auto s = FaultInjector::instance().stats("test.alpha");
  EXPECT_EQ(s.hits, 6);
  EXPECT_EQ(s.fired, 1);
  EXPECT_EQ(s.suppressed, 5);
  EXPECT_EQ(s.hits, s.fired + s.suppressed);
}

TEST(FaultInjectionTest, AlwaysModeFiresEveryEvaluation) {
  InjectorGuard guard;
  FaultInjector::instance().configure("test.alpha=*");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(g_alpha.fire());
  const auto s = FaultInjector::instance().stats("test.alpha");
  EXPECT_EQ(s.fired, 10);
  EXPECT_EQ(s.suppressed, 0);
}

TEST(FaultInjectionTest, ArmingOneSiteLeavesOthersDisarmed) {
  InjectorGuard guard;
  FaultInjector::instance().configure("test.alpha=*");
  EXPECT_TRUE(g_alpha.fire());
  EXPECT_FALSE(g_beta.fire());
  EXPECT_EQ(FaultInjector::instance().stats("test.beta").hits, 0);
  EXPECT_EQ(FaultInjector::instance().total_fired(), 1);
}

TEST(FaultInjectionTest, ProbabilityModeIsSeededAndDeterministic) {
  InjectorGuard guard;
  const auto draw = [&](const std::string& spec) {
    FaultInjector::instance().configure(spec);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(g_alpha.fire());
    return out;
  };
  const std::vector<bool> a = draw("test.alpha=p:0.5:7");
  const std::vector<bool> b = draw("test.alpha=p:0.5:7");
  EXPECT_EQ(a, b);  // same seed, same stream
  // Default seed (hash of the site name) is deterministic too.
  EXPECT_EQ(draw("test.alpha=p:0.5"), draw("test.alpha=p:0.5"));
  // A p=0.5 stream of 64 draws fires at least once and suppresses at
  // least once (probability of either tail is 2^-64).
  const auto s = FaultInjector::instance().stats("test.alpha");
  EXPECT_GT(s.fired, 0);
  EXPECT_GT(s.suppressed, 0);
  EXPECT_EQ(s.hits, s.fired + s.suppressed);
  // p:1 always fires.
  FaultInjector::instance().configure("test.alpha=p:1");
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(g_alpha.fire());
}

TEST(FaultInjectionTest, ConfigureReplacesStateAndZeroesCounters) {
  InjectorGuard guard;
  FaultInjector::instance().configure("test.alpha=*");
  g_alpha.fire();
  g_alpha.fire();
  EXPECT_EQ(FaultInjector::instance().stats("test.alpha").fired, 2);
  // Re-arm the *other* site: alpha disarms and both counters restart.
  FaultInjector::instance().configure("test.beta=1");
  EXPECT_FALSE(g_alpha.fire());
  EXPECT_EQ(FaultInjector::instance().stats("test.alpha").hits, 0);
  EXPECT_TRUE(g_beta.fire());
  FaultInjector::instance().reset();
  EXPECT_FALSE(FaultInjector::instance().enabled());
  EXPECT_FALSE(g_beta.fire());
  EXPECT_EQ(FaultInjector::instance().stats("test.beta").hits, 0);
}

TEST(FaultInjectionTest, MultiEntrySpecsAndSeparators) {
  InjectorGuard guard;
  FaultInjector::instance().configure("test.alpha=1;test.beta=2");
  EXPECT_TRUE(g_alpha.fire());
  EXPECT_FALSE(g_beta.fire());
  EXPECT_TRUE(g_beta.fire());
  // Comma separator and empty entries are accepted.
  FaultInjector::instance().configure(",test.alpha=1,,test.beta=1;");
  EXPECT_TRUE(g_alpha.fire());
  EXPECT_TRUE(g_beta.fire());
}

TEST(FaultInjectionTest, MalformedSpecsThrowWithoutArmingAnything) {
  InjectorGuard guard;
  FaultInjector::instance().reset();
  for (const char* bad :
       {"test.alpha", "=1", "test.alpha=", "test.alpha=0",
        "test.alpha=-2", "test.alpha=x", "test.alpha=p:0",
        "test.alpha=p:1.5", "test.alpha=p:nope", "test.alpha=p:0.5:seed",
        "test.alpha=1;test.beta=bogus"}) {
    EXPECT_THROW(FaultInjector::instance().configure(bad), cortex::Error)
        << bad;
    // The failed configure must not have armed anything — not even the
    // well-formed prefix of a partly-bad spec.
    EXPECT_FALSE(FaultInjector::instance().enabled()) << bad;
    EXPECT_FALSE(g_alpha.fire()) << bad;
  }
}

TEST(FaultInjectionTest, SpecOnlySitesAreAcceptedButNotListed) {
  InjectorGuard guard;
  // Arming a site no FaultSite has declared is legal (the declaring TU
  // may load later); it must not appear in registered_sites().
  FaultInjector::instance().configure("not.declared.anywhere=*");
  const auto sites = FaultInjector::instance().registered_sites();
  for (const std::string& s : sites) EXPECT_NE(s, "not.declared.anywhere");
}

TEST(FaultInjectionTest, ProductionSitesAreRegistered) {
  // Reference a symbol from each hosting TU so the static-library link
  // cannot drop the object files (and with them the site registrations).
  (void)exec::JitCache::instance();
  (void)exec::EnginePool::shard_plan(1, 1);
  (void)exec::to_string(exec::RequestStatus::kOk);

  const auto sites = FaultInjector::instance().registered_sites();
  const auto has = [&](const char* name) {
    for (const std::string& s : sites)
      if (s == name) return true;
    return false;
  };
  EXPECT_TRUE(has("jit.cc"));
  EXPECT_TRUE(has("jit.dlopen"));
  EXPECT_TRUE(has("jit.disk.write"));
  EXPECT_TRUE(has("jit.disk.rename"));
  EXPECT_TRUE(has("cache.read"));
  EXPECT_TRUE(has("pool.worker"));
  EXPECT_TRUE(has("server.dispatch"));
  // And the enumeration is sorted (the sweep battery's iteration order).
  for (std::size_t i = 1; i < sites.size(); ++i)
    EXPECT_LT(sites[i - 1], sites[i]);
}

}  // namespace
}  // namespace cortex::support
