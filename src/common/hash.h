#ifndef TRAJKIT_COMMON_HASH_H_
#define TRAJKIT_COMMON_HASH_H_

#include <cstdint>

namespace trajkit {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash, so consecutive
/// ids spread evenly over shards and table slots instead of striping.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_HASH_H_
