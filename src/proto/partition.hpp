// Feed partitioning schemes (§2, §3).
//
// Exchanges partition their market-data feeds across multicast groups —
// some alphabetically by ticker, some by instrument type. Trading firms
// re-partition normalized data with schemes of their own, and scale the
// partition count with load. All of those policies implement this one
// interface.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "proto/types.hpp"

namespace tsn::proto {

class PartitionScheme {
 public:
  virtual ~PartitionScheme() = default;

  // Maps an instrument to a partition in [0, partition_count()).
  [[nodiscard]] virtual std::uint32_t partition_of(const Symbol& symbol,
                                                   InstrumentKind kind) const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t partition_count() const noexcept = 0;
};

// Alphabetical by the ticker's first letter, split into `buckets`
// contiguous ranges of the A-Z space (e.g. 4 buckets: A-F, G-M, N-S, T-Z).
class AlphabetPartition final : public PartitionScheme {
 public:
  explicit AlphabetPartition(std::uint32_t buckets) : buckets_(buckets) {
    if (buckets == 0 || buckets > 26) throw std::invalid_argument{"1..26 buckets"};
  }

  [[nodiscard]] std::uint32_t partition_of(const Symbol& symbol,
                                           InstrumentKind /*kind*/) const noexcept override {
    char c = symbol.initial();
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c < 'A' || c > 'Z') return 0;
    return static_cast<std::uint32_t>(c - 'A') * buckets_ / 26;
  }
  [[nodiscard]] std::uint32_t partition_count() const noexcept override { return buckets_; }

 private:
  std::uint32_t buckets_;
};

// By instrument type: equities on one partition, ETFs on another, etc.
class KindPartition final : public PartitionScheme {
 public:
  [[nodiscard]] std::uint32_t partition_of(const Symbol& /*symbol*/,
                                           InstrumentKind kind) const noexcept override {
    return static_cast<std::uint32_t>(kind);
  }
  [[nodiscard]] std::uint32_t partition_count() const noexcept override { return 4; }
};

// Uniform hash over the symbol — the scheme trading firms use internally
// when they need many balanced partitions (§3 Implications).
class HashPartition final : public PartitionScheme {
 public:
  explicit HashPartition(std::uint32_t count) : count_(count) {
    if (count == 0) throw std::invalid_argument{"count must be positive"};
  }

  [[nodiscard]] std::uint32_t partition_of(const Symbol& symbol,
                                           InstrumentKind /*kind*/) const noexcept override {
    return static_cast<std::uint32_t>(std::hash<Symbol>{}(symbol) % count_);
  }
  [[nodiscard]] std::uint32_t partition_count() const noexcept override { return count_; }

 private:
  std::uint32_t count_;
};

}  // namespace tsn::proto
