/**
 * @file
 * Factory functions for the machine layouts used in the paper plus
 * generic families (line, ring, grid, all-to-all) for tests and
 * extensions.
 */
#ifndef VAQ_TOPOLOGY_LAYOUTS_HPP
#define VAQ_TOPOLOGY_LAYOUTS_HPP

#include <string>

#include "topology/coupling_graph.hpp"

namespace vaq::topology
{

/**
 * IBM-Q20 "Tokyo": 20 qubits in a 4x5 array with row/column
 * neighbour links plus the published diagonal couplings. This is the
 * machine the paper characterizes (Fig. 9) and simulates.
 */
CouplingGraph ibmQ20Tokyo();

/**
 * IBM-Q5 "Tenerife" bowtie: 5 qubits, 6 links. The machine used for
 * the paper's real-system study (Section 7).
 */
CouplingGraph ibmQ5Tenerife();

/** Path graph 0-1-...-(n-1). */
CouplingGraph linear(int n);

/** Cycle graph. Requires n >= 3. */
CouplingGraph ring(int n);

/**
 * rows x cols mesh with 4-neighbour connectivity, qubits numbered in
 * row-major order. The "Mesh network" of Section 2.4; Figs. 3/11/15
 * of the paper use grid(2, 3).
 */
CouplingGraph grid(int rows, int cols);

/** Complete graph (the idealized O(N^2)-link machine). */
CouplingGraph fullyConnected(int n);

/**
 * 27-qubit heavy-hex lattice (IBM Falcon generation, e.g.
 * ibmq_mumbai). Not a machine from the paper — included to show the
 * policies generalize to the topologies that followed it.
 */
CouplingGraph ibmFalcon27();

/**
 * The machine a command line names: q20, q5, falcon27, line:N,
 * ring:N or grid:RxC.
 * @throws VaqError on any other spelling.
 */
CouplingGraph machineByName(const std::string &name);

} // namespace vaq::topology

#endif // VAQ_TOPOLOGY_LAYOUTS_HPP
