#include "lint/render.hpp"

#include <sstream>

namespace sdf {

std::string render_text(const LintReport& report, const std::string& file) {
    std::ostringstream out;
    const std::string prefix = file.empty() ? "(graph)" : file;
    for (const Diagnostic& d : report.diagnostics) {
        out << prefix;
        if (d.location.known()) {
            out << ":" << d.location.line << ":" << d.location.column;
        }
        out << ": " << severity_name(d.severity) << ": " << d.message << " ["
            << d.rule << "]\n";
        if (!d.hint.empty()) {
            out << "    hint: " << d.hint << "\n";
        }
    }
    return out.str();
}

}  // namespace sdf
