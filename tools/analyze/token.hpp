// C++ tokenizer for crowdmap_analyze — the static analyzer's front end. It
// produces a real token stream, so no rule ever matches inside a comment or
// a literal: comments are dropped, string/char literals (including
// R"delim(...)delim" raw strings) become single literal tokens, backslash
// line splices are resolved (including splices inside // comments), and
// preprocessor directives are captured whole. Every token carries the
// physical 1-based line of its first character so findings point at source.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace crowdmap::analyze {

enum class TokKind {
  kIdentifier,  // identifiers and keywords
  kNumber,      // pp-number (int/float literals, any base)
  kString,      // "..." / R"(...)" / prefixed variants; text excludes quotes
  kChar,        // '...'; text excludes quotes
  kPunct,       // operators & punctuation; "::" and "->" kept as one token
  kDirective,   // whole preprocessor directive, text starts after '#'
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based physical line of the token's first character
};

/// Tokenizes `src`. Malformed input (unterminated literals/comments) never
/// throws: the open construct is closed at end of input.
[[nodiscard]] std::vector<Token> tokenize(std::string_view src);

}  // namespace crowdmap::analyze
