#include "obs/confusion.hh"

#include "util/logging.hh"

namespace mnm
{

DecisionMatrix::Cells &
DecisionMatrix::grow(std::uint32_t level)
{
    MNM_ASSERT(level < max_levels, "decision-matrix level out of range");
    if (level >= levels_.size())
        levels_.resize(level + 1);
    return levels_[level];
}

void
DecisionMatrix::add(std::uint32_t level, const Cells &cells)
{
    grow(level) += cells;
}

void
DecisionMatrix::setForbidden(std::uint32_t level, std::uint64_t count)
{
    grow(level).predicted_miss_actual_hit = count;
}

const DecisionMatrix::Cells &
DecisionMatrix::at(std::uint32_t level) const
{
    MNM_ASSERT(level < max_levels, "decision-matrix level out of range");
    static const Cells none;
    return level < levels_.size() ? levels_[level] : none;
}

DecisionMatrix::Cells
DecisionMatrix::totals() const
{
    Cells sum;
    for (const Cells &cells : levels_)
        sum += cells;
    return sum;
}

std::uint64_t
DecisionMatrix::forbidden() const
{
    return totals().predicted_miss_actual_hit;
}

double
DecisionMatrix::coverage() const
{
    Cells sum = totals();
    return ratio(static_cast<double>(sum.predicted_miss_actual_miss),
                 static_cast<double>(sum.actualMisses()));
}

double
DecisionMatrix::coverageAt(std::uint32_t level) const
{
    const Cells &cells = at(level);
    return ratio(static_cast<double>(cells.predicted_miss_actual_miss),
                 static_cast<double>(cells.actualMisses()));
}

void
DecisionMatrix::merge(const DecisionMatrix &other)
{
    for (std::uint32_t l = 0; l < other.levels_.size(); ++l)
        add(l, other.levels_[l]);
}

void
DecisionMatrix::reset()
{
    *this = DecisionMatrix();
}

void
DecisionMatrix::registerInto(StatsRegistry &registry,
                             const std::string &prefix) const
{
    for (std::uint32_t level = 0; level < levels_.size(); ++level) {
        const Cells &cells = levels_[level];
        if (cells.decisions() == 0)
            continue;
        std::string base = prefix + ".l" + std::to_string(level) + ".";
        registry.counter(base + "predicted_miss_actual_miss") +=
            cells.predicted_miss_actual_miss;
        registry.counter(base + "maybe_actual_miss") +=
            cells.maybe_actual_miss;
        registry.counter(base + "maybe_actual_hit") +=
            cells.maybe_actual_hit;
        registry.counter(base + "predicted_miss_actual_hit") +=
            cells.predicted_miss_actual_hit;
    }
}

void
DecisionMatrix::assertSound(const char *context) const
{
    for (std::uint32_t level = 0; level < levels_.size(); ++level) {
        if (levels_[level].predicted_miss_actual_hit != 0) {
            panic("soundness violation: %llu predicted-miss/actual-hit "
                  "decisions at level %u (%s)",
                  static_cast<unsigned long long>(
                      levels_[level].predicted_miss_actual_hit),
                  level, context);
        }
    }
}

} // namespace mnm
