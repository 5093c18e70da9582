// perfbench_calibrate — a fixed CPU workload that measures how fast the
// host runs right now.
//
// On a shared virtual machine the CPU time of the same job drifts by a
// quarter within minutes, with what the other tenants run on the same
// cores. The benchmark runs this program between its CLI jobs and scales
// their CPU times by its reference time over the median of these runs (see
// run.py). It links nothing of the repository, so no change to the engine
// changes what it measures. Its work is deterministic and resembles the
// engine's: hashing small keys, growing vectors of tuples, sorting, and
// formatting text. It takes about 50 ms and prints a checksum, so that the
// work cannot be optimised away.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

int main() {
  uint64_t state = 88172645463325252ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  uint64_t sum = 0;
  std::unordered_map<uint64_t, uint32_t> index;
  std::vector<std::vector<uint32_t>> rows;
  for (uint32_t i = 0; i < 60000; ++i) {
    index.emplace(next() % 200000, i);
    rows.push_back({static_cast<uint32_t>(next() % 1000), i, i * 7});
  }
  for (int i = 0; i < 120000; ++i) {
    auto it = index.find(next() % 200000);
    if (it != index.end()) sum += rows[it->second][0];
  }
  std::vector<uint64_t> keys(200000);
  for (uint64_t& key : keys) key = next();
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2];
  std::string text;
  for (int i = 0; i < 20000; ++i) text += std::to_string(next() % 100000) + ",";
  sum += std::hash<std::string>{}(text);
  std::printf("%llu\n", static_cast<unsigned long long>(sum));
  return 0;
}
