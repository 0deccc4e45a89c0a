// The relational query engine of Section 5, LPathEngine: LPath → SQL →
// (mini) RDBMS. One class serves both labelings, following the scheme of
// the relation it runs over:
//
//   LabelScheme::kLPath — the paper's system, over the Definition 4.1
//                         labeling (name() "LPath").
//   LabelScheme::kXPath — the Figure 10 baseline: identical machinery over
//                         the DeHaan-style tag-position labeling; supports
//                         only the XPath-expressible fragment (name()
//                         "XPathLabel").
//
// It runs the full loop by default: compile to a plan, render SQL text,
// parse the SQL back, optimize, execute. `Options::via_sql_text = false`
// skips the text round-trip (the plans are identical; ablation-benchmarked).

#ifndef LPATHDB_LPATH_ENGINES_H_
#define LPATHDB_LPATH_ENGINES_H_

#include <string>

#include "lpath/engine.h"
#include "plan/compile.h"
#include "sql/executor.h"
#include "storage/relation.h"

namespace lpath {

/// Relational LPath engine over a prebuilt NodeRelation (which must outlive
/// the engine and already use the matching labeling scheme).
class LPathEngine : public QueryEngine {
 public:
  struct Options {
    sql::ExecOptions exec;
    bool via_sql_text = true;  ///< run the full LPath→SQL→parse→execute loop
    /// Unnest positive predicates into the main join (see plan/compile.h).
    bool unnest_predicates = true;
  };

  explicit LPathEngine(const NodeRelation& relation)
      : LPathEngine(relation, Options()) {}
  LPathEngine(const NodeRelation& relation, Options options);

  std::string name() const override;

  /// Parses, translates and executes an LPath query.
  Result<QueryResult> Run(const std::string& query) const override;

  /// Like Run, but also reports executor work counters.
  Result<QueryResult> RunWithStats(const std::string& query,
                                   sql::ExecStats* stats) const;

  /// The SQL text the translator produces for `query` (what the paper's
  /// system would send to the RDBMS).
  Result<std::string> TranslateToSql(const std::string& query) const;

  /// Compiles a query to its execution plan without running it.
  Result<ExecPlan> Translate(const std::string& query) const;

  const NodeRelation& relation() const { return relation_; }

 private:
  const NodeRelation& relation_;
  Options options_;
  sql::PlanExecutor executor_;
};

/// Runs a raw SQL statement (in the generated dialect) directly against the
/// relation — the "RDBMS client" entry point.
Result<QueryResult> RunSql(const NodeRelation& relation,
                           const std::string& sql_text,
                           sql::ExecOptions exec = {});

}  // namespace lpath

#endif  // LPATHDB_LPATH_ENGINES_H_
