#include "topology/directions.hpp"

#include "common/error.hpp"

namespace vaq::topology
{

namespace
{

long
key(int num_qubits, PhysQubit control, PhysQubit target)
{
    return static_cast<long>(control) * num_qubits + target;
}

} // namespace

CnotDirections::CnotDirections(
    const CouplingGraph &graph,
    const std::vector<std::pair<PhysQubit, PhysQubit>>
        &control_target)
    : _numQubits(graph.numQubits())
{
    std::vector<bool> covered(graph.linkCount(), false);
    for (const auto &[control, target] : control_target) {
        const std::size_t link = graph.linkIndex(control, target);
        if (covered[link]) {
            throw VaqError("link given two directions: " +
                           std::to_string(control) + "->" +
                           std::to_string(target));
        }
        covered[link] = true;
        _allowed.insert(key(_numQubits, control, target));
    }
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        if (!covered[l]) {
            throw VaqError("link " + std::to_string(graph.links()[l].a) +
                           "-" + std::to_string(graph.links()[l].b) +
                           " has no direction");
        }
    }
}

bool
CnotDirections::allowed(PhysQubit control, PhysQubit target) const
{
    return _allowed.count(key(_numQubits, control, target)) > 0;
}

CnotDirections
ibmQ5TenerifeDirections(const CouplingGraph &graph)
{
    return CnotDirections(graph, {{1, 0},
                                  {2, 0},
                                  {2, 1},
                                  {3, 2},
                                  {3, 4},
                                  {4, 2}});
}

} // namespace vaq::topology
