#include "base/errors.hpp"

namespace sdf {

void require(bool condition, const char* message) {
    if (!condition) {
        throw InvalidGraphError(message);
    }
}

}  // namespace sdf
