/**
 * @file
 * Physical coupling graph of a quantum machine.
 *
 * Nodes are physical qubits; an undirected edge means a two-qubit
 * operation (CNOT / SWAP) can be performed between the endpoints
 * (Section 2.4 of the paper). All mapping policies and the fault
 * simulator consult this structure.
 */
#ifndef VAQ_TOPOLOGY_COUPLING_GRAPH_HPP
#define VAQ_TOPOLOGY_COUPLING_GRAPH_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace vaq::topology
{

/** Index of a physical qubit. */
using PhysQubit = int;

/** One undirected coupling link, stored with a <= b. */
struct Link
{
    PhysQubit a;
    PhysQubit b;

    bool operator==(const Link &other) const = default;
};

/** Immutable undirected coupling graph. */
class CouplingGraph
{
  public:
    /**
     * Build a graph from an edge list.
     * @param name Human-readable machine name ("ibm-q20-tokyo").
     * @param num_qubits Node count.
     * @param links Undirected edges; duplicates and self-loops are
     *              rejected.
     */
    CouplingGraph(std::string name, int num_qubits,
                  const std::vector<Link> &links);

    /** Machine name. */
    const std::string &name() const { return _name; }

    /** Number of physical qubits. */
    int numQubits() const { return _numQubits; }

    /** All links, each with a < b, in insertion order. */
    const std::vector<Link> &links() const { return _links; }

    /** Number of undirected links. */
    std::size_t linkCount() const { return _links.size(); }

    /** True when a direct coupling link exists between a and b. */
    bool coupled(PhysQubit a, PhysQubit b) const;

    /**
     * Index of the link {a, b} in links(); throws VaqError when the
     * qubits are not coupled. Order of a/b does not matter.
     */
    std::size_t linkIndex(PhysQubit a, PhysQubit b) const;

    /** Neighbors of qubit q. */
    const std::vector<PhysQubit> &neighbors(PhysQubit q) const;

    /** Degree of qubit q. */
    std::size_t degree(PhysQubit q) const;

    /**
     * Hop-count distance matrix (BFS). distance[a][b] is the minimum
     * number of links on any a-b path; unreachable pairs get -1.
     * Computed once in the constructor, so concurrent readers (the
     * workers sharing one calibration context's graph) never wait.
     */
    const std::vector<std::vector<int>> &hopDistances() const
    {
        return _hops;
    }

    /** True when every qubit can reach every other qubit. */
    bool isConnected() const;

    /**
     * Induced subgraph over `nodes` (which are renumbered
     * 0..nodes.size()-1 in the returned graph, in the given order).
     */
    CouplingGraph inducedSubgraph(
        const std::vector<PhysQubit> &nodes) const;

    /**
     * Content hash over qubit count and link list (name excluded):
     * two graphs with identical connectivity hash equal. Combined
     * with Snapshot::contentHash() to key per-machine caches such
     * as the reliability-path matrix.
     */
    std::uint64_t topologyHash() const;

  private:
    void checkNode(PhysQubit q) const;

    std::string _name;
    int _numQubits;
    std::vector<Link> _links;
    std::vector<std::vector<PhysQubit>> _adjacency;
    std::unordered_map<long, std::size_t> _linkLookup;
    std::vector<std::vector<int>> _hops;
};

} // namespace vaq::topology

#endif // VAQ_TOPOLOGY_COUPLING_GRAPH_HPP
