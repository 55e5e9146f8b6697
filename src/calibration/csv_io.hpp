/**
 * @file
 * CSV persistence for calibration snapshots.
 *
 * The format mirrors what one would export from the IBM Quantum
 * Experience characterization page, so real archives can be dropped
 * in as a replacement for the synthetic source:
 *
 * @code
 *   section,id,a,b,t1_us,t2_us,error_1q,readout_error,error_2q
 *   qubit,0,,,81.2,40.9,0.0021,0.031,
 *   link,0,0,1,,,,,0.024
 * @endcode
 */
#ifndef VAQ_CALIBRATION_CSV_IO_HPP
#define VAQ_CALIBRATION_CSV_IO_HPP

#include <string>

#include "calibration/snapshot.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::calibration
{

/** Serialize one snapshot to CSV text. */
std::string toCsv(const Snapshot &snapshot,
                  const topology::CouplingGraph &graph);

/**
 * Parse a snapshot from CSV text. Link rows are matched to the
 * graph's links by their (a, b) endpoints, so row order is free.
 * @param source Label prepended as "source:line:" to every
 *        malformed-row error (loadCsv passes the file path).
 * @throws CalibrationError on malformed rows, unknown links, or
 *         missing entries.
 */
Snapshot fromCsv(const std::string &text,
                 const topology::CouplingGraph &graph,
                 const std::string &source = "<csv>");

/** Write a snapshot to a CSV file. */
void saveCsv(const std::string &path, const Snapshot &snapshot,
             const topology::CouplingGraph &graph);

/** Read a snapshot from a CSV file. */
Snapshot loadCsv(const std::string &path,
                 const topology::CouplingGraph &graph);

} // namespace vaq::calibration

#endif // VAQ_CALIBRATION_CSV_IO_HPP
