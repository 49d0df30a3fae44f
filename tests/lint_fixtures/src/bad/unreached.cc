// The own .cc of the planted unreached header: its include does not count.
#include "bad/unreached.h"

namespace grouplink {
int TestOnlyHelper() { return 1; }
}  // namespace grouplink
