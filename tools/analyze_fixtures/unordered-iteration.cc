// Analyze fixture: unordered-iteration (crev_analyze --self-test).
// Hash-order iteration feeding an exported value: the result depends
// on the host's hash seed and allocator, not on the simulation. Each
// line the pass must report carries an `expect:` marker; the others
// must stay silent.
// Not compiled -- input for the self-test only.

namespace uifix {

struct PaintedExport
{
    std::unordered_set<std::uint64_t> painted_;
    std::unordered_map<std::uint64_t, std::vector<int>> owners_;
    std::unordered_multiset<std::uint64_t> shadow_;
    std::set<std::uint64_t> sorted_;

    const std::unordered_set<std::uint64_t> &painted() const;

    std::uint64_t
    checksum() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t g : painted_) // expect: unordered-iteration
            sum = sum * 31 + g;
        for (std::uint64_t g : painted()) // expect: unordered-iteration
            sum ^= g;
        for (std::uint64_t g : shadow_) // expect: unordered-iteration
            sum += g;
        // A range-for split across two lines is one statement.
        for (const auto &[granule, who] : // expect: unordered-iteration
             owners_)
            sum += granule + who.size();
        // Neither an ordered container nor a classic for is flagged.
        for (std::uint64_t g : sorted_)
            sum += g;
        for (std::uint64_t i = 0; i < (sum ? 4 : 2); ++i)
            sum += i;
        return sum;
    }
};

} // namespace uifix
