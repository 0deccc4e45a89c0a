// SQL → ExecPlan parser. Accepts the dialect GenerateSql emits:
//
//   SELECT DISTINCT <alias>.tid, <alias>.id
//   FROM <table> AS <alias> [, <table> AS <alias>]...
//   [WHERE <boolean expression>]
//
// where the boolean expression is built from column/literal comparisons,
// AND / OR / NOT, parentheses, and EXISTS (SELECT 1 FROM ... WHERE ...)
// subqueries whose conditions may reference enclosing aliases (correlation,
// resolved lexically; at most one level up, which is all the generator
// produces).
//
// The parser reads the text in one pass, without a token list. Its lexical
// forms: identifiers [A-Za-z_][A-Za-z0-9_]* (keywords and column names
// match case-insensitively, aliases exactly), unsigned decimal numbers up
// to INT64_MAX, '...' strings with '' standing for a quote, the operators
// = != <> < <= > >=, and . , ( ). Whitespace separates tokens. Any other
// character, an unterminated string or a number past INT64_MAX is an
// InvalidArgument error naming its byte offset, like every parse error.
// A literal-first comparison (3 < a.depth) is kept as written;
// sql::Prepare orients it column-first.

#ifndef LPATHDB_SQL_PARSER_H_
#define LPATHDB_SQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "plan/exec_plan.h"

namespace lpath {
namespace sql {

/// Deepest expression nesting ParseSql accepts: each NOT, EXISTS or
/// parenthesis opens one level, and each AND/OR link of a chain adds one
/// for the rest of the statement — except the links of a WHERE clause's
/// top-level conjunction, which becomes a flat list of conjuncts and
/// filters and may be any length. Deeper statements fail with
/// InvalidArgument instead of exhausting the stack of the recursive-descent
/// parser or of the executor that recurses over the same nesting. The SQL
/// generated for an LPath query nests at most about twice as deep as the
/// query's own limit (kMaxLPathNesting = 128) allows, so LPath queries at
/// that limit still round-trip through SQL text; one whose predicates
/// join hundreds of operands with `or` does not.
inline constexpr int kMaxSqlNesting = 512;

/// Parses a complete SELECT statement into an ExecPlan.
Result<ExecPlan> ParseSql(std::string_view text);

}  // namespace sql
}  // namespace lpath

#endif  // LPATHDB_SQL_PARSER_H_
