// Fixed-seed releases pinned across builds. Each case runs Engine::Run on
// a synthetic profile and compares the release, in the lossless
// ReleaseToJson form, with a golden recorded from an earlier build. A
// change that keeps releases bit-identical leaves every golden as it is;
// a change that means to move releases re-records them and says so.
//
// The cases cover the mechanism's paths: the single-basis fast path,
// pair selection plus basis merging, a 2.29M-item universe that is mostly
// support 0, the Poisson-subsample path, and a tiny epsilon whose draws
// reach low-support groups. Each test first checks that lambda and
// lambda2 show the path it names.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "server/wire.h"

namespace privbasis {
namespace {

constexpr uint64_t kDataSeed = 1;
constexpr uint64_t kQuerySeed = 7;

struct Golden {
  std::shared_ptr<Dataset> dataset;
  Release release;
};

Golden RunGolden(const SyntheticProfile& profile, QuerySpec spec) {
  auto dataset = Dataset::FromProfile(profile, kDataSeed);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  if (!dataset.ok()) return {};
  auto release = Engine::Run(*dataset, spec.WithSeed(kQuerySeed));
  EXPECT_TRUE(release.ok()) << release.status();
  if (!release.ok()) return {*dataset, {}};
  return {*dataset, *release};
}

std::string Json(const Release& release) {
  return server::ReleaseToJson(release).Dump();
}

constexpr size_t kSingleBasisCap = 12;  // PrivBasisOptions default

TEST(ReleaseGoldenTest, MushroomSingleBasis) {
  Golden g = RunGolden(SyntheticProfile::Mushroom(0.1),
                       QuerySpec().WithTopK(20));
  ASSERT_NE(g.dataset, nullptr);
  EXPECT_LE(g.release.lambda, kSingleBasisCap);
  EXPECT_EQ(g.release.lambda2, 0u);
  EXPECT_EQ(g.release.basis_set.Width(), 1u);
  EXPECT_EQ(Json(g.release),
      R"({"method":"pb","itemsets":[)"
      R"({"items":[0],"noisy_count":814.6205471787022},)"
      R"({"items":[0,2],"noisy_count":773.4162221973482},)"
      R"({"items":[0,5],"noisy_count":772.0497902690099},)"
      R"({"items":[2],"noisy_count":770.4023471374826},)"
      R"({"items":[5],"noisy_count":768.7894571043432},)"
      R"({"items":[0,2,5],"noisy_count":725.5191119372095},)"
      R"({"items":[2,5],"noisy_count":725.2036414183353},)"
      R"({"items":[0,13],"noisy_count":655.8694191514412},)"
      R"({"items":[13],"noisy_count":655.342224013003},)"
      R"({"items":[2,13],"noisy_count":634.192679880955},)"
      R"({"items":[0,2,13],"noisy_count":629.2835751098246},)"
      R"({"items":[0,5,13],"noisy_count":623.2394083809124},)"
      R"({"items":[5,13],"noisy_count":620.9788455606222},)"
      R"({"items":[2,5,13],"noisy_count":595.5142006686457},)"
      R"({"items":[0,23],"noisy_count":595.510840538082},)"
      R"({"items":[0,2,5,13],"noisy_count":593.2318709964529},)"
      R"({"items":[23],"noisy_count":590.8450011731827},)"
      R"({"items":[0,2,23],"noisy_count":575.5039223388455},)"
      R"({"items":[2,23],"noisy_count":573.0659027793606},)"
      R"({"items":[0,5,23],"noisy_count":568.9676691586084}],)"
      R"("rules":[],)"
      R"("lambda":5,"lambda2":0,)"
      R"("basis":[[0,2,5,13,23]],)"
      R"("budget":{"requested":1,"spent":1,"spent_total":1,"remaining":null}})");
}

TEST(ReleaseGoldenTest, KosarakPairsAndMerge) {
  Golden g = RunGolden(SyntheticProfile::Kosarak(0.02),
                       QuerySpec().WithTopK(60));
  ASSERT_NE(g.dataset, nullptr);
  EXPECT_GT(g.release.lambda, kSingleBasisCap);
  EXPECT_GT(g.release.lambda2, 0u);
  EXPECT_GT(g.release.basis_set.Width(), 1u);
  EXPECT_EQ(Json(g.release),
      R"({"method":"pb","itemsets":[)"
      R"({"items":[0],"noisy_count":12387.079494626116},)"
      R"({"items":[1],"noisy_count":7894.2267265510145},)"
      R"({"items":[2],"noisy_count":5639.569785486968},)"
      R"({"items":[0,1],"noisy_count":4958.800215757652},)"
      R"({"items":[3],"noisy_count":4305.8128006006555},)"
      R"({"items":[0,2],"noisy_count":3574.3217476168447},)"
      R"({"items":[4],"noisy_count":3279.0597068027337},)"
      R"({"items":[5],"noisy_count":3235.438243389726},)"
      R"({"items":[6],"noisy_count":2768.2209555958757},)"
      R"({"items":[0,3],"noisy_count":2728.8045207696305},)"
      R"({"items":[7],"noisy_count":2354.5144750298605},)"
      R"({"items":[8],"noisy_count":2227.792313321869},)"
      R"({"items":[1,2],"noisy_count":2203.994063032124},)"
      R"({"items":[0,4],"noisy_count":2174.424960697964},)"
      R"({"items":[0,5],"noisy_count":1999.098421540885},)"
      R"({"items":[9],"noisy_count":1940.2394924441908},)"
      R"({"items":[11],"noisy_count":1782.6210744438818},)"
      R"({"items":[1,3],"noisy_count":1730.2761213911072},)"
      R"({"items":[0,6],"noisy_count":1711.891835998092},)"
      R"({"items":[10],"noisy_count":1711.867189314615},)"
      R"({"items":[13],"noisy_count":1549.7728523299525},)"
      R"({"items":[0,7],"noisy_count":1500.1502450711205},)"
      R"({"items":[1,5],"noisy_count":1454.0380635244956},)"
      R"({"items":[14],"noisy_count":1416.1813227440525},)"
      R"({"items":[0,8],"noisy_count":1393.9372293914191},)"
      R"({"items":[1,4],"noisy_count":1383.9654416497742},)"
      R"({"items":[15],"noisy_count":1375.4008947102764},)"
      R"({"items":[0,1,2],"noisy_count":1332.5454103591096},)"
      R"({"items":[17],"noisy_count":1271.4625431683103},)"
      R"({"items":[2,3],"noisy_count":1191.1516880693032},)"
      R"({"items":[0,9],"noisy_count":1172.8720574761344},)"
      R"({"items":[24],"noisy_count":1153.0070329761118},)"
      R"({"items":[0,11],"noisy_count":1131.0238036871474},)"
      R"({"items":[0,1,3],"noisy_count":1127.7630367691013},)"
      R"({"items":[12],"noisy_count":1117.7214448583402},)"
      R"({"items":[1,6],"noisy_count":1104.7954803961193},)"
      R"({"items":[0,10],"noisy_count":1023.648578341668},)"
      R"({"items":[2,7],"noisy_count":1006.1292152281102},)"
      R"({"items":[2,5],"noisy_count":1004.111818477252},)"
      R"({"items":[0,13],"noisy_count":968.9941780468383},)"
      R"({"items":[0,15],"noisy_count":940.2271704287019},)"
      R"({"items":[0,1,5],"noisy_count":936.9865636999912},)"
      R"({"items":[1,11],"noisy_count":914.7586921926204},)"
      R"({"items":[0,1,4],"noisy_count":887.0767922336927},)"
      R"({"items":[0,14],"noisy_count":884.8057832219381},)"
      R"({"items":[3,8],"noisy_count":868.7573875980149},)"
      R"({"items":[2,6],"noisy_count":844.7540030896481},)"
      R"({"items":[0,2,3],"noisy_count":823.9496418053062},)"
      R"({"items":[0,17],"noisy_count":818.8506826370176},)"
      R"({"items":[5,11],"noisy_count":816.2999020886073},)"
      R"({"items":[0,24],"noisy_count":769.7250242196197},)"
      R"({"items":[3,4],"noisy_count":699.2323884018833},)"
      R"({"items":[0,2,7],"noisy_count":675.2173136786687},)"
      R"({"items":[3,17],"noisy_count":670.3351733670642},)"
      R"({"items":[1,5,11],"noisy_count":651.2523756111717},)"
      R"({"items":[0,1,6],"noisy_count":649.87701199932},)"
      R"({"items":[3,5],"noisy_count":634.7643300374724},)"
      R"({"items":[0,1,11],"noisy_count":628.5835992589299},)"
      R"({"items":[0,12],"noisy_count":622.2414017470123},)"
      R"({"items":[0,2,5],"noisy_count":591.8229253421672}],)"
      R"("rules":[],)"
      R"("lambda":25,"lambda2":32,)"
      R"("basis":[[0,1,2,3,5],[0,1,3,5,11],[0,1,2,6],[0,1,3,4],[0,2,5,7],[0,2,)"
      R"(12,13],[0,3,8,17],[0,9,10,24],[0,14,15,33556],[7849,22899,30211],[48,)"
      R"(7117,11334]],)"
      R"("budget":{"requested":1,"spent":1,"spent_total":1,"remaining":null}})");
}

TEST(ReleaseGoldenTest, AolHugeUniverseMostlyZero) {
  Golden g = RunGolden(SyntheticProfile::Aol(0.01),
                       QuerySpec().WithTopK(20));
  ASSERT_NE(g.dataset, nullptr);
  const TransactionDatabase& db = g.dataset->db();
  EXPECT_EQ(db.UniverseSize(), 2290685u);
  const auto& supports = db.ItemSupports();
  EXPECT_GT(std::count(supports.begin(), supports.end(), uint64_t{0}),
            static_cast<std::ptrdiff_t>(db.UniverseSize() / 2));
  // Item selection over the whole universe; eta*k < lambda leaves no
  // pair budget.
  EXPECT_GT(g.release.lambda, kSingleBasisCap);
  EXPECT_EQ(g.release.lambda2, 0u);
  EXPECT_EQ(Json(g.release),
      R"({"method":"pb","itemsets":[)"
      R"({"items":[0],"noisy_count":1714.6993876847484},)"
      R"({"items":[1],"noisy_count":1276.9034279285256},)"
      R"({"items":[2],"noisy_count":990.2186459742683},)"
      R"({"items":[3],"noisy_count":944.6936753276811},)"
      R"({"items":[4],"noisy_count":817.162335786975},)"
      R"({"items":[5],"noisy_count":729.4014248015928},)"
      R"({"items":[6],"noisy_count":696.251161972005},)"
      R"({"items":[10],"noisy_count":562.8868293607833},)"
      R"({"items":[7],"noisy_count":536.6327228588315},)"
      R"({"items":[0,1],"noisy_count":345.1001544342},)"
      R"({"items":[0,2],"noisy_count":288.7409871587645},)"
      R"({"items":[1,2],"noisy_count":227.4469237509721},)"
      R"({"items":[3,4],"noisy_count":145.49726789359565},)"
      R"({"items":[1115000],"noisy_count":75.90941355126068},)"
      R"({"items":[0,1,2],"noisy_count":68.90955993188263},)"
      R"({"items":[1061522],"noisy_count":64.52327115186174},)"
      R"({"items":[352308,901093],"noisy_count":40.94995204589867},)"
      R"({"items":[352308,901093,1999159],"noisy_count":40.039047989975884},)"
      R"({"items":[5,1695991],"noisy_count":37.917541690503896},)"
      R"({"items":[901093,1999159],"noisy_count":36.750389199729774}],)"
      R"("rules":[],)"
      R"("lambda":23,"lambda2":0,)"
      R"("basis":[[0,1,2],[3,4,1453095],[7,1195058,1571563],[5,1695991,)"
      R"(1733684],[352308,901093,1999159],[6,25672,45656],[96765,1061522,)"
      R"(1115000],[10,737361]],)"
      R"("budget":{"requested":1,"spent":1,"spent_total":1,"remaining":null}})");
}

TEST(ReleaseGoldenTest, KosarakSubsampled) {
  Golden g = RunGolden(SyntheticProfile::Kosarak(0.05),
                       QuerySpec().WithTopK(40).WithAmplification(0.5));
  ASSERT_NE(g.dataset, nullptr);
  EXPECT_GT(g.release.lambda, kSingleBasisCap);
  EXPECT_GT(g.release.lambda2, 0u);
  EXPECT_EQ(Json(g.release),
      R"({"method":"pb","itemsets":[)"
      R"({"items":[0],"noisy_count":31517.652219879925},)"
      R"({"items":[1],"noisy_count":20286.191528022293},)"
      R"({"items":[2],"noisy_count":14268.323538281395},)"
      R"({"items":[0,1],"noisy_count":12767.426446469173},)"
      R"({"items":[3],"noisy_count":11094.893896791134},)"
      R"({"items":[0,2],"noisy_count":9131.737860252699},)"
      R"({"items":[4],"noisy_count":8809.369820413742},)"
      R"({"items":[5],"noisy_count":8289.21262364204},)"
      R"({"items":[0,3],"noisy_count":7218.217666626209},)"
      R"({"items":[6],"noisy_count":6921.714567618088},)"
      R"({"items":[7],"noisy_count":6053.637521842555},)"
      R"({"items":[1,2],"noisy_count":5756.30148131986},)"
      R"({"items":[8],"noisy_count":5729.113858159895},)"
      R"({"items":[0,4],"noisy_count":5563.751173421656},)"
      R"({"items":[0,5],"noisy_count":5223.188351979239},)"
      R"({"items":[11],"noisy_count":5017.43934359058},)"
      R"({"items":[9],"noisy_count":4912.013181553746},)"
      R"({"items":[10],"noisy_count":4554.295806154569},)"
      R"({"items":[1,3],"noisy_count":4515.277908148517},)"
      R"({"items":[1,5],"noisy_count":4209.864196889691},)"
      R"({"items":[0,6],"noisy_count":4204.756840837552},)"
      R"({"items":[13],"noisy_count":3958.908899718932},)"
      R"({"items":[0,7],"noisy_count":3811.9794511122764},)"
      R"({"items":[15],"noisy_count":3638.9853617185186},)"
      R"({"items":[0,1,2],"noisy_count":3625.9200760056797},)"
      R"({"items":[14],"noisy_count":3617.7408396923047},)"
      R"({"items":[17],"noisy_count":3609.9057647491745},)"
      R"({"items":[0,8],"noisy_count":3539.3951903602638},)"
      R"({"items":[1,4],"noisy_count":3503.3311368335285},)"
      R"({"items":[2,3],"noisy_count":3335.119352091599},)"
      R"({"items":[0,9],"noisy_count":3112.699239852892},)"
      R"({"items":[0,11],"noisy_count":3044.5348361195265},)"
      R"({"items":[12],"noisy_count":3001.8913773091167},)"
      R"({"items":[20],"noisy_count":2978.145391474629},)"
      R"({"items":[1,11],"noisy_count":2873.6559008481167},)"
      R"({"items":[0,1,3],"noisy_count":2871.422687171281},)"
      R"({"items":[0,10],"noisy_count":2850.4086394684236},)"
      R"({"items":[24],"noisy_count":2814.6615848598267},)"
      R"({"items":[22],"noisy_count":2803.3745778632174},)"
      R"({"items":[19],"noisy_count":2783.5177245870264}],)"
      R"("rules":[],)"
      R"("lambda":21,"lambda2":22,)"
      R"("basis":[[0,1,2,3],[0,1,2,4],[0,1,2,5],[0,1,6,8],[0,1,10,11],[0,7,9,)"
      R"(15],[3,13,17],[12,20,22],[14,19,24]],)"
      R"("budget":{"requested":1,"spent":1,"spent_total":1,"remaining":null}})");
}

TEST(ReleaseGoldenTest, MushroomTinyEpsilonReachesLowSupport) {
  Golden g = RunGolden(SyntheticProfile::Mushroom(0.1),
                       QuerySpec().WithTopK(20).WithEpsilon(0.01));
  ASSERT_NE(g.dataset, nullptr);
  EXPECT_LE(g.release.lambda, kSingleBasisCap);
  EXPECT_EQ(g.release.lambda2, 0u);
  ASSERT_EQ(g.release.basis_set.Width(), 1u);
  // Near-uniform draws: the basis holds items outside the true top
  // lambda by support.
  const std::vector<Item> order = g.dataset->db().ItemsByFrequency();
  const Itemset top(std::vector<Item>(order.begin(),
                                      order.begin() + g.release.lambda));
  size_t outside = 0;
  for (Item item : g.release.basis_set.basis(0)) {
    outside += !top.Contains(item);
  }
  EXPECT_GT(outside, 0u);
  EXPECT_EQ(Json(g.release),
      R"({"method":"pb","itemsets":[)"
      R"({"items":[47,99],"noisy_count":1623.027860797295},)"
      R"({"items":[47,96,99],"noisy_count":1408.5319476665932},)"
      R"({"items":[99],"noisy_count":1384.3664967553257},)"
      R"({"items":[96,99,104],"noisy_count":1363.0276410536305},)"
      R"({"items":[47,96,99,104],"noisy_count":1242.7169943446477},)"
      R"({"items":[47],"noisy_count":1125.2923752532888},)"
      R"({"items":[99,104],"noisy_count":1105.1143539708319},)"
      R"({"items":[96,99],"noisy_count":1039.8838779593834},)"
      R"({"items":[47,99,104],"noisy_count":969.377187980003},)"
      R"({"items":[47,104],"noisy_count":672.2570815944949},)"
      R"({"items":[9,47,96,99],"noisy_count":238.36304742758986},)"
      R"({"items":[9,47,99],"noisy_count":216.67186091299948},)"
      R"({"items":[9,47,96,99,104],"noisy_count":165.6096683017038},)"
      R"({"items":[9,47,99,104],"noisy_count":124.63646865874534},)"
      R"({"items":[104],"noisy_count":53.416308694821055},)"
      R"({"items":[9,96,99,104],"noisy_count":5.262065150250351},)"
      R"({"items":[47,96,104],"noisy_count":-28.04346156213205},)"
      R"({"items":[47,96],"noisy_count":-37.586890244541564},)"
      R"({"items":[9,99,104],"noisy_count":-88.67691232189794},)"
      R"({"items":[9,47,104],"noisy_count":-171.18090413694267}],)"
      R"("rules":[],)"
      R"("lambda":5,"lambda2":0,)"
      R"("basis":[[9,47,96,99,104]],)"
      R"("budget":{"requested":0.01,"spent":0.01,"spent_total":0.01,)"
      R"("remaining":null}})");
}

}  // namespace
}  // namespace privbasis
