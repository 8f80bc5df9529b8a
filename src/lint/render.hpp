// render.hpp — turning a LintReport into text for humans.
//
// The text form follows the compiler convention "file:line:col: severity:
// message [RULE]" so editors and CI annotate model files directly.  The
// JSON form for tools is serve::ops::lint_json (serve/ops.hpp), shared by
// `lint --format json` and the serve `lint` op.
#pragma once

#include <string>

#include "lint/diagnostic.hpp"

namespace sdf {

/// Compiler-style rendering, one finding per line, hints indented below.
/// `file` prefixes every line ("(graph)" when empty).
std::string render_text(const LintReport& report, const std::string& file);

}  // namespace sdf
