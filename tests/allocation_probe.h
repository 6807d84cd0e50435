#ifndef CQMS_TESTS_ALLOCATION_PROBE_H_
#define CQMS_TESTS_ALLOCATION_PROBE_H_

// The allocation probe: this header replaces the global operator new,
// which records the largest single request and counts the requests
// while a probe is armed, so a test can show that no decoder sizes an
// allocation from a count it has not seen bytes for, or that a
// structure allocates per chunk rather than per element. Include it
// from exactly one translation unit of a test binary (each tests/*.cc
// is one binary).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace cqms::testing_util::allocation_probe {
inline std::atomic<bool> armed{false};
inline std::atomic<size_t> largest{0};
inline std::atomic<size_t> count{0};
}  // namespace cqms::testing_util::allocation_probe

// The replacements pair malloc with free; GCC cannot see that through
// the operator new / delete names.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  namespace probe = cqms::testing_util::allocation_probe;
  if (probe::armed.load(std::memory_order_relaxed)) {
    probe::count.fetch_add(1, std::memory_order_relaxed);
    if (size > probe::largest.load(std::memory_order_relaxed)) {
      probe::largest.store(size, std::memory_order_relaxed);
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too: the library pairs them with the plain delete
// (std::get_temporary_buffer, under std::stable_sort).
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace cqms::testing_util {

/// Runs `fn` with the probe armed.
template <typename Fn>
void ProbeAllocations(Fn&& fn) {
  allocation_probe::largest.store(0, std::memory_order_relaxed);
  allocation_probe::count.store(0, std::memory_order_relaxed);
  allocation_probe::armed.store(true, std::memory_order_relaxed);
  fn();
  allocation_probe::armed.store(false, std::memory_order_relaxed);
}

/// Largest allocation made while running `fn`.
template <typename Fn>
size_t LargestAllocationDuring(Fn&& fn) {
  ProbeAllocations(std::forward<Fn>(fn));
  return allocation_probe::largest.load(std::memory_order_relaxed);
}

/// Allocations made while running `fn`.
template <typename Fn>
size_t AllocationsDuring(Fn&& fn) {
  ProbeAllocations(std::forward<Fn>(fn));
  return allocation_probe::count.load(std::memory_order_relaxed);
}

}  // namespace cqms::testing_util

#endif  // CQMS_TESTS_ALLOCATION_PROBE_H_
