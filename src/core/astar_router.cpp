#include "core/astar_router.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <queue>

#include "common/cancellation.hpp"
#include "common/error.hpp"

namespace vaq::core
{

namespace
{

/** One layout cell: the program qubit on a physical qubit, or
 *  kFreeQubit. */
using Cell = std::int16_t;

constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

/** Bookkeeping per visited layout; the layout itself is the node's
 *  row of NodePool::_cells. */
struct Node
{
    double g = 0.0;
    std::uint32_t parent = kNoNode;
    /** The SWAP that reached the node from its parent. */
    std::int16_t swapA = -1;
    std::int16_t swapB = -1;
};

/**
 * Every layout the search visited, `width` cells each, in one flat
 * pool, plus an open-addressing index over it (linear probing, load
 * at most 1/2) that hashes and compares the pooled rows. Nodes never
 * move or leave, so an index names one layout for the whole search.
 */
class NodePool
{
  public:
    explicit NodePool(int width)
        : _width(static_cast<std::size_t>(width)),
          _slots(std::size_t{1} << kInitialBits, kNoNode)
    {}

    const Cell *
    layout(std::uint32_t node) const
    {
        return _cells.data() + node * _width;
    }

    Node &node(std::uint32_t index) { return _nodes[index]; }

    /**
     * The node holding `layout`, and whether it was added by this
     * call (a new node has g = 0 and no parent). `layout` must not
     * point into the pool: adding a node may move the rows.
     */
    std::pair<std::uint32_t, bool>
    findOrAdd(const Cell *layout)
    {
        std::size_t slot = home(layout);
        for (; _slots[slot] != kNoNode; slot = (slot + 1) & mask()) {
            if (std::memcmp(this->layout(_slots[slot]), layout,
                            _width * sizeof(Cell)) == 0)
                return {_slots[slot], false};
        }
        const auto index = static_cast<std::uint32_t>(_nodes.size());
        VAQ_ASSERT(index != kNoNode, "layer search node pool is full");
        _cells.insert(_cells.end(), layout, layout + _width);
        _nodes.emplace_back();
        _slots[slot] = index;
        if (2 * _nodes.size() > _slots.size())
            grow();
        return {index, true};
    }

    /** Lexicographic order of two nodes' layouts. */
    bool
    layoutLess(std::uint32_t a, std::uint32_t b) const
    {
        const Cell *la = layout(a);
        const Cell *lb = layout(b);
        return std::lexicographical_compare(la, la + _width, lb,
                                            lb + _width);
    }

  private:
    static constexpr int kInitialBits = 8;

    std::size_t mask() const { return _slots.size() - 1; }

    /** Home slot: FNV-1a over the cells, then a Fibonacci multiply
     *  so the top bits pick the slot. */
    std::size_t
    home(const Cell *layout) const
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (std::size_t i = 0; i < _width; ++i) {
            h ^= static_cast<std::uint64_t>(layout[i] + 2);
            h *= 1099511628211ULL;
        }
        return static_cast<std::size_t>(
            (h * 0x9E3779B97F4A7C15ULL) >> (64 - _bits));
    }

    void
    grow()
    {
        ++_bits;
        _slots.assign(std::size_t{1} << _bits, kNoNode);
        for (std::uint32_t index = 0; index < _nodes.size(); ++index) {
            std::size_t slot = home(layout(index));
            while (_slots[slot] != kNoNode)
                slot = (slot + 1) & mask();
            _slots[slot] = index;
        }
    }

    std::size_t _width;
    int _bits = kInitialBits;
    std::vector<Cell> _cells;
    std::vector<Node> _nodes;
    std::vector<std::uint32_t> _slots;
};

/** Open-list entry: a node pushed with key (f, g). */
struct Entry
{
    double f;
    double g;
    std::uint32_t node;
};

} // namespace

std::optional<SwapSequence>
planLayerSwaps(const topology::CouplingGraph &graph,
               const CostModel &cost,
               const MovementPlanner &planner, const Layout &layout,
               const std::vector<ProgPair> &pairs,
               std::size_t node_cap)
{
    require(!pairs.empty(), "layer has no two-qubit gates");

    const int n = graph.numQubits();
    require(n <= std::numeric_limits<Cell>::max(),
            "machine too wide for the layer search");
    const auto width = static_cast<std::size_t>(n);

    // Per-gate cost bound for the heuristic, computed lazily. The
    // bound is the *full* movement plan cost including the final
    // CNOT, so the search also pays for the link each gate will
    // execute on — at a goal state h collapses to exactly the
    // layer's execution cost and f = swaps + execution, the true
    // objective (uniform costs make this a constant offset, so the
    // baseline's behaviour is unchanged).
    std::vector<double> bound(width * width, -1.0);
    auto boundFor = [&](int pa, int pb) {
        double &cell = bound[static_cast<std::size_t>(pa) * width +
                             static_cast<std::size_t>(pb)];
        if (cell < 0.0) {
            cell = planner.planCost(pa, pb);
            bound[static_cast<std::size_t>(pb) * width +
                  static_cast<std::size_t>(pa)] = cell;
        }
        return cell;
    };

    // Program qubit positions of the layout last passed to
    // positions(), in one reused buffer.
    std::vector<int> pos(static_cast<std::size_t>(layout.numProg()));
    auto positions = [&](const Cell *s) {
        std::fill(pos.begin(), pos.end(), -1);
        for (int p = 0; p < n; ++p) {
            const int prog = s[p];
            if (prog != kFreeQubit)
                pos[static_cast<std::size_t>(prog)] = p;
        }
    };
    auto at = [&](circuit::Qubit q) {
        return pos[static_cast<std::size_t>(q)];
    };

    auto heuristic = [&](const Cell *s) {
        positions(s);
        double h = 0.0;
        for (const auto &[qa, qb] : pairs)
            h += boundFor(at(qa), at(qb));
        return h;
    };

    auto isGoal = [&](const Cell *s) {
        positions(s);
        for (const auto &[qa, qb] : pairs) {
            if (!graph.coupled(at(qa), at(qb)))
                return false;
        }
        return true;
    };

    // Cost of actually executing the layer's gates on the links
    // they would use in state s.
    auto execCost = [&](const Cell *s) {
        positions(s);
        double total = 0.0;
        for (const auto &[qa, qb] : pairs)
            total += cost.cnotCost(at(qa), at(qb));
        return total;
    };

    NodePool pool(n);
    // The popped layout and the child being built: nodes are added
    // while a layout is expanded, which may move the pool's rows.
    std::vector<Cell> state(width);
    std::vector<Cell> next(width);
    for (int p = 0; p < n; ++p)
        state[static_cast<std::size_t>(p)] =
            static_cast<Cell>(layout.prog(p));
    const std::uint32_t start = pool.findOrAdd(state.data()).first;

    // Pop order is (f, g, layout), lexicographic layout last: g
    // stabilizes ties in f, and the layout makes the order total.
    auto later = [&pool](const Entry &a, const Entry &b) {
        if (a.f != b.f)
            return a.f > b.f;
        if (a.g != b.g)
            return a.g > b.g;
        return pool.layoutLess(b.node, a.node);
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(later)>
        open(later);
    open.push({heuristic(state.data()), 0.0, start});

    // Best terminal found so far: a terminal is any state where all
    // pairs are adjacent, with total objective g + execution cost.
    // Goal states stay expandable — under non-uniform costs, moving
    // *past* the first adjacency onto stronger links can lower the
    // total.
    double bestTotal = std::numeric_limits<double>::infinity();
    std::uint32_t bestNode = kNoNode;

    auto reconstruct = [&](std::uint32_t terminal) {
        SwapSequence swaps;
        for (std::uint32_t cur = terminal;
             pool.node(cur).parent != kNoNode;
             cur = pool.node(cur).parent) {
            swaps.emplace_back(pool.node(cur).swapA,
                               pool.node(cur).swapB);
        }
        std::reverse(swaps.begin(), swaps.end());
        return swaps;
    };

    std::size_t expanded = 0;
    while (!open.empty()) {
        // Deadline checkpoint every 512 expansions: cheap relative
        // to the expansion itself, frequent enough that a runaway
        // search honors a per-job budget within milliseconds.
        if ((expanded & 511u) == 0)
            checkCancellation("router.astar");
        const auto [f, g, index] = open.top();
        open.pop();
        if (g > pool.node(index).g)
            continue; // stale

        // h never exceeds the true remaining cost of *this* branch's
        // terminals by much; once the frontier minimum reaches the
        // best terminal total, searching further cannot pay off.
        if (f >= bestTotal)
            return reconstruct(bestNode);

        std::copy_n(pool.layout(index), width, state.begin());
        if (isGoal(state.data())) {
            const double total = g + execCost(state.data());
            if (total < bestTotal) {
                bestTotal = total;
                bestNode = index;
            }
        }

        if (++expanded > node_cap) {
            if (bestNode != kNoNode)
                return reconstruct(bestNode);
            return std::nullopt;
        }

        for (const topology::Link &link : graph.links()) {
            const auto a = static_cast<std::size_t>(link.a);
            const auto b = static_cast<std::size_t>(link.b);
            // Swapping two free qubits never helps.
            if (state[a] == kFreeQubit && state[b] == kFreeQubit)
                continue;
            next = state;
            std::swap(next[a], next[b]);
            const double ng = g + cost.swapCost(link.a, link.b);
            const auto [child, added] = pool.findOrAdd(next.data());
            Node &node = pool.node(child);
            if (!added && node.g <= ng)
                continue;
            node = {ng, index, static_cast<std::int16_t>(link.a),
                    static_cast<std::int16_t>(link.b)};
            open.push({ng + heuristic(next.data()), ng, child});
        }
    }
    if (bestNode != kNoNode)
        return reconstruct(bestNode);
    return std::nullopt;
}

} // namespace vaq::core
