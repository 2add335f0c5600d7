#pragma once

#include <string_view>

#include "sched/scheduler.hpp"

namespace saga {

/// PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa 2014), the
/// best-known successor to HEFT and a natural candidate for the paper's
/// "more algorithms" extension list.
///
/// Precomputes the Optimistic Cost Table
///   OCT(t, v) = max over successors s of
///               min over nodes v' of ( OCT(s, v') + w(s, v')
///                                      + (v' != v ? c̄(t, s) : 0) )
/// — the best possible remaining path cost if t ran on v and everything
/// downstream chose optimally. Tasks are prioritised by the average OCT
/// row (rank_oct) and placed on the node minimising the *optimistic* EFT,
/// O_EFT(t, v) = EFT(t, v) + OCT(t, v), with insertion. Same O(|T|^2 |V|)
/// complexity class as HEFT.
class PeftScheduler final : public ListScheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "PEFT"; }

 private:
  void build(TimelineBuilder& builder) const override;
};

}  // namespace saga
