#include "core/movement_planner.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace vaq::core
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

struct MovementPlanner::Candidate
{
    double cost = kInf;
    int hops = 0;          ///< swaps on the route
    int meetNode = -1;     ///< where the mover ends up
    bool moveFirst = true; ///< true: pa's qubit moves, else pb's
};

MovementPlanner::MovementPlanner(
    const topology::CouplingGraph &graph, const CostModel &cost,
    int mah, const PlanCache *shared)
    : _graph(graph), _cost(cost), _mah(mah), _shared(shared)
{
    require(mah >= 0 || mah == kUnlimitedHops,
            "MAH must be >= 0 or kUnlimitedHops");
    if (_shared) {
        require(_shared->numQubits() == graph.numQubits(),
                "shared plan cache built for a different machine");
    }
}

void
MovementPlanner::cappedDijkstra(
    topology::PhysQubit src, topology::PhysQubit blocked,
    int hop_cap, std::vector<std::vector<double>> &dist,
    std::vector<std::vector<int>> &parent) const
{
    const auto n = static_cast<std::size_t>(_graph.numQubits());
    const auto layers = static_cast<std::size_t>(hop_cap) + 1;
    dist.assign(n, std::vector<double>(layers, kInf));
    parent.assign(n, std::vector<int>(layers, -1));
    dist[static_cast<std::size_t>(src)][0] = 0.0;

    // (cost, hops, node) min-heap; the tuple ordering makes pops
    // deterministic.
    using Entry = std::tuple<double, int, int>;
    std::priority_queue<Entry, std::vector<Entry>,
                        std::greater<Entry>> heap;
    heap.emplace(0.0, 0, src);

    while (!heap.empty()) {
        const auto [d, k, u] = heap.top();
        heap.pop();
        if (d > dist[static_cast<std::size_t>(u)]
                   [static_cast<std::size_t>(k)]) {
            continue;
        }
        if (k == hop_cap)
            continue;
        for (topology::PhysQubit v : _graph.neighbors(u)) {
            if (v == blocked)
                continue;
            const double step = _cost.swapCost(u, v);
            const double nd = d + step;
            auto &dv = dist[static_cast<std::size_t>(v)]
                           [static_cast<std::size_t>(k) + 1];
            if (nd < dv) {
                dv = nd;
                parent[static_cast<std::size_t>(v)]
                      [static_cast<std::size_t>(k) + 1] = u;
                heap.emplace(nd, k + 1, v);
            }
        }
    }
}

MovementPlan
MovementPlanner::plan(topology::PhysQubit pa,
                      topology::PhysQubit pb) const
{
    if (_shared)
        return _shared->plan(pa, pb);
    return computePlan(pa, pb);
}

double
MovementPlanner::planCost(topology::PhysQubit pa,
                          topology::PhysQubit pb) const
{
    if (_shared)
        return _shared->plan(pa, pb).cost;
    return computePlan(pa, pb).cost;
}

MovementPlan
MovementPlanner::computePlan(topology::PhysQubit pa,
                             topology::PhysQubit pb) const
{
    require(pa != pb, "cannot route a qubit to itself");

    const auto &hops = _graph.hopDistances();
    const int minHops = hops[static_cast<std::size_t>(pa)]
                            [static_cast<std::size_t>(pb)];
    require(minHops > 0, "qubits are disconnected on the machine");

    // Note: already-adjacent pairs are NOT returned immediately.
    // Under a reliability cost model it can be cheaper to move a
    // qubit one hop over strong links than to execute on the weak
    // link it happens to sit on; the "stay put" option emerges
    // naturally below as the zero-swap candidate. Under uniform
    // costs staying is always cheapest, so baseline behaviour is
    // unchanged.

    // A hop-minimal route uses minHops - 1 swaps; MAH extends it.
    const int swapCap = _mah == kUnlimitedHops
                            ? _graph.numQubits() - 1
                            : (minHops - 1) + _mah;

    Candidate best;
    std::vector<std::vector<double>> distA, distB;
    std::vector<std::vector<int>> parentA, parentB;
    cappedDijkstra(pa, pb, swapCap, distA, parentA);
    cappedDijkstra(pb, pa, swapCap, distB, parentB);

    auto scan = [&](const std::vector<std::vector<double>> &dist,
                    topology::PhysQubit stationary,
                    bool move_first) {
        for (topology::PhysQubit u :
             _graph.neighbors(stationary)) {
            const double cnot = move_first
                                    ? _cost.cnotCost(u, stationary)
                                    : _cost.cnotCost(stationary, u);
            const auto &row = dist[static_cast<std::size_t>(u)];
            for (int k = 0;
                 k <= swapCap &&
                 static_cast<std::size_t>(k) < row.size();
                 ++k) {
                if (row[static_cast<std::size_t>(k)] == kInf)
                    continue;
                const double total =
                    row[static_cast<std::size_t>(k)] + cnot;
                const bool better =
                    total < best.cost ||
                    (total == best.cost &&
                     (k < best.hops ||
                      (k == best.hops && u < best.meetNode)));
                if (better) {
                    best.cost = total;
                    best.hops = k;
                    best.meetNode = u;
                    best.moveFirst = move_first;
                }
            }
        }
    };
    scan(distA, pb, true);
    scan(distB, pa, false);

    if (best.meetNode < 0) {
        throw VaqError("no route within the hop budget between qubits " +
                       std::to_string(pa) + " and " +
                       std::to_string(pb));
    }

    // Reconstruct the mover's path meetNode <- ... <- src.
    const auto &parent = best.moveFirst ? parentA : parentB;
    std::vector<int> path;
    int node = best.meetNode;
    int k = best.hops;
    while (node != -1) {
        path.push_back(node);
        node = parent[static_cast<std::size_t>(node)]
                     [static_cast<std::size_t>(k)];
        --k;
    }
    std::reverse(path.begin(), path.end());
    VAQ_ASSERT(path.front() == (best.moveFirst ? pa : pb),
               "movement path lost its source");

    MovementPlan plan;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        plan.swaps.emplace_back(path[i], path[i + 1]);
    plan.cost = best.cost;
    plan.extraHops = (best.hops + 1) - minHops;
    if (best.moveFirst) {
        plan.gateA = best.meetNode;
        plan.gateB = pb;
    } else {
        plan.gateA = pa;
        plan.gateB = best.meetNode;
    }
    return plan;
}

PlanCache::PlanCache(const topology::CouplingGraph &graph,
                     const calibration::Snapshot &snapshot,
                     CostKind kind, int mah)
    : _graph(graph),
      _cost(makeCostModel(kind, _graph, snapshot)),
      // The inner planner is handed no shared cache and is used
      // only through computePlan(), which is stateless —
      // concurrent first-use fills of distinct entries are safe.
      _planner(_graph, *_cost, mah),
      _plans(static_cast<std::size_t>(graph.numQubits()) *
             static_cast<std::size_t>(graph.numQubits())),
      _once(std::make_unique<std::once_flag[]>(
          static_cast<std::size_t>(graph.numQubits()) *
          static_cast<std::size_t>(graph.numQubits())))
{
}

const MovementPlan &
PlanCache::plan(topology::PhysQubit pa,
                topology::PhysQubit pb) const
{
    const int n = _graph.numQubits();
    require(pa >= 0 && pa < n && pb >= 0 && pb < n,
            "physical qubit index out of range");
    const auto idx =
        static_cast<std::size_t>(pa) *
            static_cast<std::size_t>(_graph.numQubits()) +
        static_cast<std::size_t>(pb);
    // A throwing compute (pa == pb, disconnected pair) leaves the
    // flag unset, so the error repeats on every query just as the
    // uncached planner's would.
    std::call_once(_once[idx], [&] {
        _plans[idx] = _planner.computePlan(pa, pb);
    });
    return _plans[idx];
}

} // namespace vaq::core
