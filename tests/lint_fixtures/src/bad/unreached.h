// Planted violation: unreached-header. Only this header's own .cc includes
// it, so nothing shipped (src/, examples/, perfbench/) reaches it.
#ifndef GROUPLINK_BAD_UNREACHED_H_
#define GROUPLINK_BAD_UNREACHED_H_

namespace grouplink {
int TestOnlyHelper();
}  // namespace grouplink

#endif  // GROUPLINK_BAD_UNREACHED_H_
