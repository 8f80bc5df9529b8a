#include "base/string_util.hpp"

#include <cctype>
#include <charconv>

namespace sdf {

namespace {

bool is_digit(char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::string_view trim(std::string_view text) {
    std::size_t begin = 0;
    while (begin < text.size() && is_space(text[begin])) {
        ++begin;
    }
    std::size_t end = text.size();
    while (end > begin && is_space(text[end - 1])) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(separator, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            return fields;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::optional<Int> parse_int(std::string_view text) {
    text = trim(text);
    if (text.empty()) {
        return std::nullopt;
    }
    Int value = 0;
    const char* first = text.data();
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
        return std::nullopt;
    }
    return value;
}

NameParts split_name_suffix(std::string_view name) {
    std::size_t pos = name.size();
    while (pos > 0 && is_digit(name[pos - 1])) {
        --pos;
    }
    NameParts parts;
    parts.stem = std::string(name.substr(0, pos));
    if (pos < name.size()) {
        parts.index = parse_int(name.substr(pos));
    }
    return parts;
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

}  // namespace sdf
