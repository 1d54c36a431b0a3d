// Seeded real-world-style inconsistencies (Exp-5 substrate).
//
// The paper's effectiveness study (§7 Exp-5) counts errors NGDs catch in
// DBpedia/YAGO2/Pokec: 415 / 212 / 568, of which 92% are beyond GFDs.
// Those datasets are not available offline, so this injector plants the
// exact motifs the paper reports — with a controlled error rate — into a
// synthetic background graph:
//   - lifespan        (Fig 1 G1 / φ1): destroyed-before-created entities
//   - population sum  (Fig 1 G2 / φ2): female + male ≠ total
//   - population rank (Fig 1 G3 / φ3): larger population, worse rank
//   - fake accounts   (Fig 1 G4 / φ4): follower/following gap vs status
//   - living people   (Exp-5 NGD1): birth year < 1800 yet "living people"
//   - olympic         (Exp-5 NGD2): more nations than competitors
//   - F1 wins         (Exp-5 NGD3): drivers' wins exceed their team's
//   - constant bind   (GFD-expressible control: wrong constant attribute)
// Each planter returns how many instances and how many true errors were
// planted, giving ground truth for precision/recall.

#ifndef NGD_GRAPH_ERROR_INJECTOR_H_
#define NGD_GRAPH_ERROR_INJECTOR_H_

#include <cstdint>
#include <string_view>

#include "graph/graph.h"
#include "util/rng.h"

namespace ngd {

struct MotifStats {
  size_t instances = 0;
  size_t errors = 0;
};

class ErrorInjector {
 public:
  ErrorInjector(Graph* g, uint64_t seed) : g_(g), rng_(seed) {}

  /// org -[wasCreatedOnDate]-> date, org -[wasDestroyedOnDate]-> date;
  /// error: destroyed.val - created.val < min_lifespan_days.
  MotifStats PlantLifespan(size_t count, double error_rate);

  /// area -[femalePopulation|malePopulation|populationTotal]-> integer;
  /// error: female + male != total.
  MotifStats PlantPopulation(size_t count, double error_rate);

  /// Two places in one region with population and populationRank nodes;
  /// error: x.population < y.population but x.rank < y.rank (better rank
  /// despite smaller population).
  MotifStats PlantPopulationRank(size_t count, double error_rate);

  /// Two accounts keying one company with follower/following/status;
  /// error: account with big follower+following deficit has status 1.
  MotifStats PlantFakeAccounts(size_t count, double error_rate);

  /// person -[birthYear]-> year, person -[category]-> category;
  /// error: year < 1800 and category value "living people".
  MotifStats PlantLivingPeople(size_t count, double error_rate);

  /// competition -[nations|competitors]-> integer, type "Olympic";
  /// error: nations > competitors.
  MotifStats PlantOlympicNations(size_t count, double error_rate);

  /// team + two drivers with numberOfWins in the same year;
  /// error: driver wins sum exceeds team wins.
  MotifStats PlantF1Wins(size_t count, double error_rate);

  /// GFD-expressible control motif: capital -[locatedIn]-> country must
  /// carry kind = "capital-city"; error: wrong constant.
  MotifStats PlantConstantBinding(size_t count, double error_rate);

 private:
  NodeId AddIntNode(std::string_view label, int64_t val);

  Graph* g_;
  Rng rng_;
};

}  // namespace ngd

#endif  // NGD_GRAPH_ERROR_INJECTOR_H_
