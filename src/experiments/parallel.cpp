#include "experiments/parallel.h"

#include <atomic>
#include <exception>
#include <thread>

namespace conscale {

std::size_t default_parallel_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<std::size_t>(hw) : 1;
}

namespace detail {

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::size_t workers = jobs == 0 ? default_parallel_jobs() : jobs;
  if (workers > n) workers = n;

  std::vector<std::exception_ptr> errors(n);
  auto run_index = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_index(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
          run_index(i);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  // Failures surface deterministically: the lowest failing index wins, no
  // matter which worker hit it first.
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace detail

}  // namespace conscale
