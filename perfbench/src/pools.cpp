// Pinned cells and serve backbones.
//
// A paper cell is only a valid benchmark unit when its backdoor implants
// and Grad-Prune keeps at least one pruned filter; at this scale that
// holds for most seeds but not all. Each pool below lists candidate seeds,
// in increasing order, that passed `bdbench vet` (baseline ASR >= 90%,
// and for cells at least one pruned filter in every defense trial). A run's --seed picks a pool
// entry, so different seeds still give different inputs. The gate is
// checked again on every run; the pools only keep the workload valid.
#include <stdexcept>

#include "workloads.h"

namespace bdbench {

namespace {

// Vetted from candidates 1..40 (cells) and 1..28 (serve backbones).
constexpr std::uint64_t kCellPool[] = {1,  2,  3,  4,  5,  7,  8,  10,
                                       11, 13, 15, 16, 17, 20, 21, 24};
// The preactresnet serve backbone has the cell's configuration, so the
// vetted seeds coincide.
constexpr std::uint64_t kServePreactPool[] = {1,  2,  3,  4,  5,  7,  8,  10,
                                              11, 13, 15, 16, 17, 20, 21, 24};
constexpr std::uint64_t kServeVggPool[] = {1,  2,  3,  6,  7,  8,  12, 13,
                                           14, 15, 16, 17, 18, 21, 22, 23};

template <std::size_t N>
std::uint64_t pick(const std::uint64_t (&pool)[N], std::uint64_t index) {
  return pool[index % N];
}

/// Shrinks a spec to the self-test scale: seconds instead of minutes, too
/// small to implant, so the gate thresholds are zero.
CellSpec tiny(CellSpec s) {
  s.train_per_class = 12;
  s.test_per_class = 3;
  s.attack_epochs = 1;
  s.width = 4;
  s.prune_rounds = 2;
  s.finetune_epochs = 1;
  s.spc = 2;
  s.implant_asr = 0.0;
  s.min_pruned = 0;
  return s;
}

}  // namespace

CellSpec pinned_cell(const std::string& profile, std::uint64_t seed) {
  CellSpec s;  // cifar / preactresnet / bpp / Grad-Prune at SPC 10
  if (profile == "tiny") {
    s.seed = seed;
    return tiny(s);
  }
  if (profile != "paper") throw std::invalid_argument("unknown profile " + profile);
  s.seed = pick(kCellPool, seed);
  return s;
}

CellSpec serve_backbone(const std::string& profile, const std::string& arch,
                        std::uint64_t index) {
  CellSpec s;
  s.arch = arch;
  if (profile == "tiny") {
    s.seed = 1000 + index;
    return tiny(s);
  }
  if (profile != "paper") throw std::invalid_argument("unknown profile " + profile);
  s.seed = arch == "vgg" ? pick(kServeVggPool, index) : pick(kServePreactPool, index);
  return s;
}

}  // namespace bdbench
