// Pins the streaming generators' output bit for bit, not just its
// statistics. For every SeriesSource family (poisson, bursty, router,
// datacenter, memctrl) in plain, `batched` and `rate_limited` mode and three
// seeds, a SHA-256 over the emitted runs plus the derived stats
// (num_request_rounds, horizon, every max_backlog) must reproduce the
// recorded value. Mid-stream cuts pin the SaveState words and the
// LoadState-resumed tail, and the Rng table pins the raw generator and its
// Poisson draws. A change meant to make generation faster must leave every
// value here untouched; a change that moves one changed the streams.
//
// The shapes use delay bounds that are not powers of two (3, 5, 7, 12) and
// two of them have more than 64 colors. Rates include 0, values under 1,
// and values of 30 and up (Rng::Poisson's split path).
//
// On a mismatch the test prints the whole table as it now comes out, in
// the source format below.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/codec.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "workload/arrival_source.h"
#include "workload/memctrl.h"
#include "workload/source.h"

namespace rrs {
namespace {

using workload::ArrivalSource;

constexpr uint64_t kSeeds[] = {1, 7, 0x9e3779b97f4a7c15ULL};
constexpr Round kCuts[] = {17, 45};

struct Mode {
  const char* name;
  bool batched;
  bool rate_limited;
};
constexpr Mode kModes[] = {{"plain", false, false},
                           {"batched", true, false},
                           {"rate_limited", false, true}};

using Factory =
    std::function<std::unique_ptr<ArrivalSource>(const Mode&, uint64_t)>;

struct Family {
  const char* name;
  Factory make;
};

// 70 colors: the due-color set spans two 64-bit words.
std::unique_ptr<ArrivalSource> MakePoisson(const Mode& mode, uint64_t seed) {
  static const Round kDelays[] = {1, 3, 5, 12, 2, 8, 7};
  static const double kRates[] = {0.0625, 0.5, 1.5, 0.0, 35.0};
  std::vector<workload::ColorSpec> colors;
  for (size_t c = 0; c < 70; ++c) {
    colors.push_back({kDelays[c % 7], kRates[c % 5]});
  }
  workload::PoissonOptions o;
  o.rounds = 240;
  o.batched = mode.batched;
  o.rate_limited = mode.rate_limited;
  o.seed = seed;
  return workload::MakePoissonSource(std::move(colors), o);
}

std::unique_ptr<ArrivalSource> MakeBursty(const Mode& mode, uint64_t seed) {
  static const Round kDelays[] = {3, 5, 12, 1, 2};
  static const double kRates[] = {0.5, 2.0, 0.0625, 40.0};
  std::vector<workload::ColorSpec> colors;
  for (size_t c = 0; c < 9; ++c) {
    colors.push_back({kDelays[c % 5], kRates[c % 4]});
  }
  workload::BurstyOptions o;
  o.rounds = 260;
  o.p_on_to_off = 0.1;
  o.p_off_to_on = 0.2;
  o.start_on = true;
  o.batched = mode.batched;
  o.rate_limited = mode.rate_limited;
  o.seed = seed;
  return workload::MakeBurstySource(std::move(colors), o);
}

std::unique_ptr<ArrivalSource> MakeRouter(const Mode& mode, uint64_t seed) {
  std::vector<workload::RouterService> services = {
      {"voice", 3, 0.5, 3.0},   {"video", 5, 1.0, 6.0},
      {"bulk", 12, 0.2, 40.0},  {"ctrl", 1, 0.0625, 0.25},
      {"web", 4, 0.0, 2.5}};
  workload::RouterOptions o;
  o.rounds = 300;
  o.period = 64;
  o.batched = mode.batched;
  o.rate_limited = mode.rate_limited;
  o.seed = seed;
  return workload::MakeRouterSource(std::move(services), o);
}

// 67 services, dominant rate in Poisson's split range.
std::unique_ptr<ArrivalSource> MakeDatacenter(const Mode& mode,
                                              uint64_t seed) {
  workload::DatacenterOptions o;
  o.num_services = 67;
  o.delay_choices = {3, 5, 12, 4};
  o.rounds = 320;
  o.phase_length = 50;
  o.dominant_per_phase = 5;
  o.background_rate = 0.25;
  o.dominant_rate = 45.0;
  o.batched = mode.batched;
  o.rate_limited = mode.rate_limited;
  o.seed = seed;
  return workload::MakeDatacenterSource(o);
}

std::unique_ptr<ArrivalSource> MakeMemctrl(const Mode& mode, uint64_t seed) {
  workload::MemctrlOptions o;
  o.num_ranks = 2;
  o.banks_per_rank = 3;
  o.delay_choices = {3, 5, 12};
  o.rounds = 300;
  o.refresh_period = 40;
  o.refresh_length = 6;
  o.batched = mode.batched;
  o.rate_limited = mode.rate_limited;
  o.seed = seed;
  return workload::MakeMemctrlSource(o);
}

const std::vector<Family>& Families() {
  static const std::vector<Family> families = {
      {"poisson", MakePoisson},       {"bursty", MakeBursty},
      {"router", MakeRouter},         {"datacenter", MakeDatacenter},
      {"memctrl", MakeMemctrl}};
  return families;
}

// Every run (round, color, count) from the cursor to the end of the stream.
void HashTail(ArrivalSource& source, Sha256& h) {
  while (source.cursor() < source.num_request_rounds()) {
    const Round k = source.cursor();
    for (const auto& [c, count] : source.NextRound()) {
      h.UpdateU64(static_cast<uint64_t>(k));
      h.UpdateU64(c);
      h.UpdateU64(count);
    }
  }
}

std::string StreamDigest(ArrivalSource& source) {
  Sha256 h;
  h.UpdateU64(static_cast<uint64_t>(source.num_request_rounds()));
  h.UpdateU64(static_cast<uint64_t>(source.horizon()));
  for (ColorId c = 0; c < source.shape().num_colors(); ++c) {
    h.UpdateU64(source.max_backlog(c));
  }
  source.Reset();
  HashTail(source, h);
  return h.FinishHex();
}

std::string TailDigest(ArrivalSource& source) {
  Sha256 h;
  HashTail(source, h);
  return h.FinishHex();
}

std::string WordsDigest(const std::vector<uint64_t>& words) {
  Sha256 h;
  for (const uint64_t w : words) h.UpdateU64(w);
  return h.FinishHex();
}

struct Row {
  std::string name;
  std::string value;

  friend bool operator==(const Row&, const Row&) = default;
};

std::string Format(const Row& r) {
  return "    {\"" + r.name + "\",\n     \"" + r.value + "\"},";
}

void ExpectTable(const std::vector<Row>& got, const std::vector<Row>& want) {
  bool same = got.size() == want.size();
  EXPECT_EQ(got.size(), want.size());
  for (size_t i = 0; same && i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "row " << i << ": got\n"
                                   << Format(got[i]) << "\nwant\n"
                                   << Format(want[i]);
    same = got[i] == want[i];
  }
  if (!same) {
    std::string table;
    for (const Row& r : got) table += Format(r) + "\n";
    ADD_FAILURE() << "table as it now comes out:\n" << table;
  }
}

// Recorded from the per-draw generators (one out-of-line DrawCount per
// color-round), rows in family x mode x seed order.
const std::vector<Row> kStreams = {
    {"poisson/plain/1",
     "eebfcc58b2631b7137395dff908473a12a8a43914fec867a8f805f0e29b4f2bd"},
    {"poisson/plain/7",
     "57737174a9cb1c4d2f6c1546fd0fbe4ebbcc0eaebd6e02b147b0c784ea3b40dc"},
    {"poisson/plain/9e3779b97f4a7c15",
     "64762413d8eab91d2d72a19e75fd4ae1c5d0e9de1d0863e7d3209c1005920c26"},
    {"poisson/batched/1",
     "2a1b10382c34ab89e1561b235d3c5589d2219a5e66b3a604a5ce73590ef081d2"},
    {"poisson/batched/7",
     "f67771e346497c827f45cf8e94c87c6e94062645363fb3632b9c77096a41dd80"},
    {"poisson/batched/9e3779b97f4a7c15",
     "5e60b3535d2c8f004b7d44fe7aacb52bc9aca9f8e557ad1fd8a7e2c13886c430"},
    {"poisson/rate_limited/1",
     "9d2f9dfd00751104906925c6b416e7964d9b0b699837a385800dc813c3fc2f67"},
    {"poisson/rate_limited/7",
     "18935afd662c4c614e94f4aa0cb779af94485b1d530b46bf4bebc4eba5b8a4b8"},
    {"poisson/rate_limited/9e3779b97f4a7c15",
     "4000cabe3d25238ac52fb09fc0decce9d65e509efd11746d4e044e97dfb343df"},
    {"bursty/plain/1",
     "754b2f62d105a35d0c6055a0486fac44736e278d8d67abfbfb59d8b70b4773c2"},
    {"bursty/plain/7",
     "e9a0b121b440b6c13361a50583c70daa0ae39fdfcbadb71cdd2c2c2b56197ade"},
    {"bursty/plain/9e3779b97f4a7c15",
     "e59e321d78359fa786a472f10631e71fd1b79fe2f769a937ac7e1fc8ee3a9706"},
    {"bursty/batched/1",
     "685c5f7d5630ca49ff06723c8f7c545c67b19b4e9599482fa03a6a7567c715f5"},
    {"bursty/batched/7",
     "d258011042b0d482fe87f0aeda06d8c3a69a6b2c0409c674972c6264782085e5"},
    {"bursty/batched/9e3779b97f4a7c15",
     "3646f1bc911c731838ac139d5cab214d23c277e20021cc80ec8ca4cd631324a0"},
    {"bursty/rate_limited/1",
     "06b615586f3bc4d50cff7abf011e9ff8f8a247a4ccd70f1e96913cd381a1c960"},
    {"bursty/rate_limited/7",
     "d8efc67a3360e2177f733f496f22d10537ca690312b59d904d116e3a8db4ea94"},
    {"bursty/rate_limited/9e3779b97f4a7c15",
     "48e98299b8f915bd9f6a056e6f68767ba7f4a181d1976845791af726b555530c"},
    {"router/plain/1",
     "58efaf6b8bee595f1bd13d89feec989b4a3c4413d0c53cb7a87691a4f904e176"},
    {"router/plain/7",
     "8c80a5aa74dfe97cc6a529a8c266646a09c717434bb752925ecbfa63287fd4a1"},
    {"router/plain/9e3779b97f4a7c15",
     "70afd7c6e96b54a1060df9c5c16a1f322d5e05115508fcdd2294d49a6fd33585"},
    {"router/batched/1",
     "6379aac7bfebe992c917c0f8fbb1dffd549cba66c7d224c6b7727d435116b85a"},
    {"router/batched/7",
     "165c30ccd189c955cd567aaf71151e2b27ce57551aeca278542220f5bbf40e97"},
    {"router/batched/9e3779b97f4a7c15",
     "ff7a528b57327c69e543aa7f6a45291f56850f12cb33aa4e40a5348a77724e8a"},
    {"router/rate_limited/1",
     "5019880ffea7ec52a2acb84e4bd08d3805c9e808dc4c8e5a04ec81c257d75ac9"},
    {"router/rate_limited/7",
     "b744bb19779fcb2c69e00c407f1f8d8dd51e75ef0f29e18c202e1d95462592c7"},
    {"router/rate_limited/9e3779b97f4a7c15",
     "24d880d60ba6ddaa6ae64568b0c369bf9ff8dfdd12467109269cc7543e1143ac"},
    {"datacenter/plain/1",
     "7353588f8a76c7fc9c896ede73112f927b6d3983ce331ff92f42831429f45894"},
    {"datacenter/plain/7",
     "a55cb083a5af1c563fd6e9e4ac9cc8a99adb487accb0eed3867372ccc5aab307"},
    {"datacenter/plain/9e3779b97f4a7c15",
     "c6945bbaf96cd7fccc2590bd8eaddf6967bc3610e9d4dc3ba3ecb7a061ab8313"},
    {"datacenter/batched/1",
     "55aeb45fe7b7ae74353ddbde2a06651e492c89f785283775833c79146ebc5d29"},
    {"datacenter/batched/7",
     "48ac0e4b91cd690f14532404f641869a9a6dbe33d5eb7bc38178a2dada007b76"},
    {"datacenter/batched/9e3779b97f4a7c15",
     "a628a71987f7822df1d5c6377c8680c773741c0fd03981942f39c37253665dcc"},
    {"datacenter/rate_limited/1",
     "0e69f2ff4bcf43ffa8e63d853e3237c8e075a044370be4fab21e6d2d21768594"},
    {"datacenter/rate_limited/7",
     "34fb9d1ecb674155115da76e41fd309f5894918e6f7d81019dda807efa7aafca"},
    {"datacenter/rate_limited/9e3779b97f4a7c15",
     "2ed298579b7832b50dc6a01b293973f4c080e24c4a36f1739168e2c85b6ddae7"},
    {"memctrl/plain/1",
     "42581211452b5adf3c0263d24e7010edf8465c4b330994f99b9a11dc6376889c"},
    {"memctrl/plain/7",
     "0ee1e925a29580dd6fe4bf32afcf60b61cd79f074c95fe689fcc95059098f2a9"},
    {"memctrl/plain/9e3779b97f4a7c15",
     "be8f8cbcaf698cc3f85b86baeda799fac05e838df479704506cb79cd4cca03f7"},
    {"memctrl/batched/1",
     "2a0bae1598c3b5d6a8b6986ca48fb496d60eea7cc7f19298ab1b1937ba92ad38"},
    {"memctrl/batched/7",
     "2746e5eda62c1ffcef6a563274d3ea49865db09bd9a7550ca5f3ec15b109bc50"},
    {"memctrl/batched/9e3779b97f4a7c15",
     "eedbe4b1d628d4d4508dd247a39e469abaea06d94a20afd4277a183a69b91a56"},
    {"memctrl/rate_limited/1",
     "4f05b16ea7e973e7aff31b1938239f3708491ca0e0974721ec103de9e7ea2311"},
    {"memctrl/rate_limited/7",
     "3d60e08c58dbf63da9003c124b8c12273c9020e49c66edfd118352e36cbdd911"},
    {"memctrl/rate_limited/9e3779b97f4a7c15",
     "f82117e8f985de108f1230bf4c0b9d374cd2247e898a72bd8cc4fac1d6db2ba9"},
};

// Seed 1 in every family and mode. Value: SaveState word count, then the
// digest of the words, then the digest of the tail a LoadState-resumed
// clone emits.
const std::vector<Row> kCutRows = {
    {"poisson/plain/cut17",
     "287 fcb3c1a7c4a8ae1218ef357e4765eb30c77696073b0461ec59e2db3ed61fe558 ab3c37adf813e99e29f6a6727b4c82fcf20b0878ab024817dc6695e89fe1ff4d"},
    {"poisson/plain/cut45",
     "287 ad3b580006508b4042f4671e03a41edd8e11011adeed83415093b1cc8c95e1bf 5d769a7ab14eb78da921cc367ea7175a4c918f5d05ab9a4d5fa1334a0ec68c18"},
    {"poisson/batched/cut17",
     "287 045027d5e71d7f1207710cad5c56bd68dea355d2a959bc5e422852db3ebc9037 a56fa431a42cdcce2051a82d024579de5396356645639bd8ca354be74140afae"},
    {"poisson/batched/cut45",
     "287 f3cb0aa58f297b44f4b7fd9dec1475874624311d3b170471e331bd5071095c73 cb6d3fa66ac207121a93ef2be5822bbeb8d3e036e933a8ab8490cfbaba06a7e1"},
    {"poisson/rate_limited/cut17",
     "287 045027d5e71d7f1207710cad5c56bd68dea355d2a959bc5e422852db3ebc9037 21d0bb82c2627af417efeb7d811796c39966165afaf6093b9cf967e559a8bd8e"},
    {"poisson/rate_limited/cut45",
     "287 f3cb0aa58f297b44f4b7fd9dec1475874624311d3b170471e331bd5071095c73 33d135ed4d803d81dc4e67f833afcb5919ac43086a11edcd44077f469f53f43f"},
    {"bursty/plain/cut17",
     "53 0c2255b908deab989003783da708d30f0aa6b26b0a565099b21ebf6fbf8e25eb 4bfdec76004fc5355de5827226d69edf7007ff4cc8e172c74d7da1d02725943d"},
    {"bursty/plain/cut45",
     "53 750cd1609a0d71beca8df1a6604b5a5a6e0b76327d7008ce0273a788a1f51018 02949e4db0cb7dc32f2c7f29a9fc1c7fbf9123179f7efdddb976a2164e7ca7e2"},
    {"bursty/batched/cut17",
     "53 2c0ffbdbfd1f51e0220bbde0d0a1698316d8daa6ba129266af8311d6fb850407 90b433c69a6358a9344f3e61bc1f97fa53b07095cc685fffbf1fa826b7d38bc1"},
    {"bursty/batched/cut45",
     "53 c07aff6b49fa0a14895f052714a8ce06fbe0dfe841cd0a6847a8778572a5d46d a1c84f4e8bdcbe9df046e33304616759c77598fd19e1e26e2ff63f23f72b95f3"},
    {"bursty/rate_limited/cut17",
     "53 2c0ffbdbfd1f51e0220bbde0d0a1698316d8daa6ba129266af8311d6fb850407 b3040f270be2e312381dc195e4bb66b5c49901d95ad0e75e6f5f6241949ba670"},
    {"bursty/rate_limited/cut45",
     "53 c07aff6b49fa0a14895f052714a8ce06fbe0dfe841cd0a6847a8778572a5d46d a0deba036866f41b81daee368bd06f2b20b61114fe2cc0fa92cc60249a037a01"},
    {"router/plain/cut17",
     "27 ec79dee8875d5ce524f483892aacc8b7a2d7c03f8329702f73746bd62df03f50 5bb4e93aed98f2a88a4370a85fbcf2e224d249fbc6ed8a730676946f2f0d969d"},
    {"router/plain/cut45",
     "27 a10deeaef7ec847153aee2a2e02f1adf1c2cf32f9d4e5afcac903016b01b2ac1 c79bbc7a17219aa766483ac23516f185454263933d98e80b741503fb4d39ec9a"},
    {"router/batched/cut17",
     "27 df8503e642d88223d980d53e33c79619c6306abeee21f6e7e84ef74c5d79880c 3e0c729f8c4f3704c6994dd18cc05d9faa8ffe73b9c5ae238e13ed23e0c8e64e"},
    {"router/batched/cut45",
     "27 937d0653a58c168452f0f4f09855e2581bcc8708419a5a1f7e4a67e579dc0d10 1f32898b26227318219995b4d7a719d506c29a8e95ca821e8e5bec7806f7d60d"},
    {"router/rate_limited/cut17",
     "27 df8503e642d88223d980d53e33c79619c6306abeee21f6e7e84ef74c5d79880c 8fc85db48cbd59afa703b80b2f6462def5b4ab107abd1e136653502868ab9063"},
    {"router/rate_limited/cut45",
     "27 937d0653a58c168452f0f4f09855e2581bcc8708419a5a1f7e4a67e579dc0d10 cf71b03f3a13120da348ad73b255d500a1b8bab7c19e91b26bd84a52f4605961"},
    {"datacenter/plain/cut17",
     "275 aebfd6d39e2a3e4aa7c8371d926c3da0e4f40d1d850178c826750ac8b78967b3 f6d66af372513573181c90232ab963ce2dd79bf18fab0ca022ace4dbbe806468"},
    {"datacenter/plain/cut45",
     "275 969a2176dfda0b2144c19b6b844bb04923425e34c84802ffba4099ad559fb211 5b161e4bf33792f4867820a3dd57921ad331ab8da4ced7a2eae20b26d2e5cb21"},
    {"datacenter/batched/cut17",
     "275 61546bf5f6db386c87413aa9ea52e6e525b4c155c4a74b57df08d138710869f9 2919c951ed61007a71d5cb18a6384cbe68772224599eee0130161c749070c998"},
    {"datacenter/batched/cut45",
     "275 05022faf9d323b4a98e80afd5ffddeca0b5990d3345c320b482bb253287c30d6 7cba682590f48909c243668f88e372a5018cbf1c5c25599c86eab20f76806613"},
    {"datacenter/rate_limited/cut17",
     "275 61546bf5f6db386c87413aa9ea52e6e525b4c155c4a74b57df08d138710869f9 b39e74429b89d71983ca75ed152bdec168b1ac564fc677648a2f5ec09f7be8e0"},
    {"datacenter/rate_limited/cut45",
     "275 05022faf9d323b4a98e80afd5ffddeca0b5990d3345c320b482bb253287c30d6 6d6abb5b6baa1fed1af22989f1ea7e2a8950f96819fb60932bedd9ee15dd05f3"},
    {"memctrl/plain/cut17",
     "45 1f5ee32f2cc220762ef414de4002f962e9f7fe000098e7d2fe03080ba4957013 fa6788f9b49800086db3db776b6e11ef6f1ac33d5b4e754f5bb3ec6ccdfe3979"},
    {"memctrl/plain/cut45",
     "45 4f2963019a3f5c74554ac87a8cecb5cbf4b7b2b74fc7a516b10411387c0665b9 1645dc81d5041cae48f6409da1a8c7dd581c6ac29a7e3b49ba0677f2b5e242aa"},
    {"memctrl/batched/cut17",
     "45 85dd58b128834a2e3d6f392d38f1a9aba584a335883de4761cb9ce54193fd2ce 91e7656fdc2bb39b6c0642d8fc56d7b656e8244a0b1c9a5d75a21169ec05ce8a"},
    {"memctrl/batched/cut45",
     "45 874d6ece0e159271491bcfb85d3b55c41a52ed7e15f9e00e56618bee539a36e7 eadf2ee544fff883b3c3412f8ee6e7964333c6280b4bbaf829bd5ab6afc93a08"},
    {"memctrl/rate_limited/cut17",
     "45 85dd58b128834a2e3d6f392d38f1a9aba584a335883de4761cb9ce54193fd2ce 98e5dcc3ffe270cce6eab487906901df51a5020f2c1a4623d90b16e34d1da0af"},
    {"memctrl/rate_limited/cut45",
     "45 874d6ece0e159271491bcfb85d3b55c41a52ed7e15f9e00e56618bee539a36e7 84c2375887d355ede8fe5c3c9e2f6b793088ca9aaf791445c6a96f0a3bf201c6"},
};

TEST(StreamPin, EveryFamilyModeAndSeed) {
  std::vector<Row> got;
  for (const Family& family : Families()) {
    for (const Mode& mode : kModes) {
      for (const uint64_t seed : kSeeds) {
        auto source = family.make(mode, seed);
        char name[96];
        std::snprintf(name, sizeof(name), "%s/%s/%llx", family.name,
                      mode.name, static_cast<unsigned long long>(seed));
        got.push_back({name, StreamDigest(*source)});
      }
    }
  }
  ExpectTable(got, kStreams);
}

TEST(StreamPin, SaveStateAtUnalignedCutsAndResumedTail) {
  std::vector<Row> got;
  for (const Family& family : Families()) {
    for (const Mode& mode : kModes) {
      for (const Round cut : kCuts) {
        auto source = family.make(mode, kSeeds[0]);
        ASSERT_LT(cut, source->num_request_rounds()) << family.name;
        for (Round k = 0; k < cut; ++k) source->NextRound();
        snapshot::Writer w;
        source->SaveState(w);

        auto resumed = source->Clone();
        snapshot::Reader r(w.words());
        resumed->LoadState(r);
        EXPECT_TRUE(r.AtEnd()) << family.name;
        ASSERT_EQ(resumed->cursor(), cut) << family.name;
        const std::string tail = TailDigest(*resumed);
        EXPECT_EQ(tail, TailDigest(*source))
            << family.name << "/" << mode.name;

        char name[96];
        std::snprintf(name, sizeof(name), "%s/%s/cut%lld", family.name,
                      mode.name, static_cast<long long>(cut));
        got.push_back({name, std::to_string(w.words().size()) + " " +
                                 WordsDigest(w.words()) + " " + tail});
      }
    }
  }
  ExpectTable(got, kCutRows);
}

std::string Hex(const std::vector<uint64_t>& values) {
  std::string out;
  for (const uint64_t v : values) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%llx", out.empty() ? "" : " ",
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  return out;
}

// Sixteen draws of each kind from a fresh Rng(seed), as hex words
// (UniformDouble as its IEEE-754 bit pattern).
const std::vector<Row> kRngRows = {
    {"Next/1",
     "b3f2af6d0fc710c5 853b559647364cea 92f89756082a4514 642e1c7bc266a3a7 b27a48e29a233673 24c123126ffda722 123004ef8df510e6 61954dcc47b1e89d ddfdb48ab9ed4a21 8d3cdb8c3aa5b1d0 eebd114bd87226d1 f50c3ff1e7d7e8a6 eeca3115e23bc8f1 ab49ed3db4c66435 99953c6c57808dd7 e3fa941b05219325"},
    {"UniformDouble/1",
     "3fe67e55eda1f8e2 3fe0a76ab2c8e6c9 3fe25f12eac10548 3fd90b871ef099a8 3fe64f491c534466 3fc260918937fed0 3fb23004ef8df510 3fd865537311ec7a 3febbfb691573da9 3fe1a79b718754b6 3fedd7a2297b0e44 3feea187fe3cfafd 3fedd94622bc4779 3fe5693da7b698cc 3fe332a78d8af011 3fec7f528360a432"},
    {"PoissonProduct(exp(-0.5))/1",
     "1 0 0 1 0 0 1 3 0 1 0 0 0 0 0 1"},
    {"Poisson(0.0625)/1",
     "0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0"},
    {"Poisson(45)/1",
     "2b 3c 28 2b 33 2f 23 32 39 2f 26 27 32 25 2a 35"},
    {"Next/5eed5eed5eed",
     "b2cbfce54b754f1b 23dc90571ddb44f9 7d34ce352e71b61f 5f9c25286ff51b8f 57bbe244fb1f3455 1f7e1f94be937e1e b19947bf32031de8 1c38bf0d8f85436c 8bc192732074f65f c76590f993ebd9e5 165cb484bc0037d f27a4f4698921096 b91f96b55d6dbb6f 727235fb9151f68c 26a2a852d9e54504 eb71c819f6753873"},
    {"UniformDouble/5eed5eed5eed",
     "3fe6597f9ca96ea9 3fc1ee482b8eeda0 3fdf4d338d4b9c6c 3fd7e7094a1bfd46 3fd5eef8913ec7cc 3fbf7e1f94be9378 3fe63328f7e64063 3fbc38bf0d8f8540 3fe178324e640e9e 3fe8ecb21f327d7b 3f765cb484bc0000 3fee4f49e8d31242 3fe723f2d6abadb7 3fdc9c8d7ee4547c 3fc35154296cf2a0 3fed6e39033ecea7"},
    {"PoissonProduct(exp(-0.5))/5eed5eed5eed",
     "1 0 0 0 0 1 0 1 2 0 1 1 0 0 2 0"},
    {"Poisson(0.0625)/5eed5eed5eed",
     "0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0"},
    {"Poisson(45)/5eed5eed5eed",
     "2e 30 2e 25 3b 23 29 38 31 2f 2e 31 33 29 1e 34"},
};

TEST(StreamPin, RngValues) {
  std::vector<Row> got;
  for (const uint64_t seed : {uint64_t{1}, uint64_t{0x5eed5eed5eedULL}}) {
    const auto draws = [seed](const std::function<uint64_t(Rng&)>& draw) {
      Rng rng(seed);
      std::vector<uint64_t> out;
      for (int i = 0; i < 16; ++i) out.push_back(draw(rng));
      return Hex(out);
    };
    const std::string s = "/" + Hex({seed});
    got.push_back({"Next" + s, draws([](Rng& r) { return r.Next(); })});
    got.push_back({"UniformDouble" + s, draws([](Rng& r) {
                     return std::bit_cast<uint64_t>(r.UniformDouble());
                   })});
    got.push_back({"PoissonProduct(exp(-0.5))" + s, draws([](Rng& r) {
                     return r.PoissonProduct(std::exp(-0.5));
                   })});
    got.push_back({"Poisson(0.0625)" + s,
                   draws([](Rng& r) { return r.Poisson(0.0625); })});
    got.push_back(
        {"Poisson(45)" + s, draws([](Rng& r) { return r.Poisson(45.0); })});
  }
  ExpectTable(got, kRngRows);
}

}  // namespace
}  // namespace rrs
