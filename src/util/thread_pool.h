// Hardware concurrency query. Every chase run uses one thread, the caller's,
// so nothing in the engine consults it.
#ifndef TWCHASE_UTIL_THREAD_POOL_H_
#define TWCHASE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <thread>

namespace twchase {

struct ThreadPool {
  /// No effect on any run; goes once perfbench stops calling it.
  static size_t HardwareConcurrency() {
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<size_t>(n);
  }
};

}  // namespace twchase

#endif  // TWCHASE_UTIL_THREAD_POOL_H_
