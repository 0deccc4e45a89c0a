// The LPath parser: hand-written contextual recursive descent over the raw
// character stream. Tokenizing lazily in context resolves the ambiguities
// between tag characters and operators (e.g. the tag "-NONE-" vs. the
// immediate-following axis "->", or "PRP$" vs. right-edge alignment, which
// requires quoting: //'PRP$').

#ifndef LPATHDB_LPATH_PARSER_H_
#define LPATHDB_LPATH_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "lpath/ast.h"

namespace lpath {

/// Deepest predicate nesting ParseLPath accepts: each '[', '(' or not(...)
/// opens one level, and so does each and/or operator until its chain ends
/// (a chain is a left-deep tree). Deeper queries fail with InvalidArgument
/// instead of exhausting the stack of the recursive-descent parser, or of
/// the compiler, optimizer and executor that recurse over the same tree.
inline constexpr int kMaxLPathNesting = 128;

/// Parses a complete top-level LPath query (it must be absolute, i.e. begin
/// with '/' or '//'). Errors carry the byte offset.
Result<LocationPath> ParseLPath(std::string_view query);

}  // namespace lpath

#endif  // LPATHDB_LPATH_PARSER_H_
