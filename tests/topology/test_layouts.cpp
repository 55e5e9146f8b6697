#include "topology/layouts.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace vaq::topology
{
namespace
{

TEST(Layouts, Q20TokyoShape)
{
    const CouplingGraph g = ibmQ20Tokyo();
    EXPECT_EQ(g.numQubits(), 20);
    EXPECT_EQ(g.linkCount(), 43u);
    EXPECT_TRUE(g.isConnected());
    EXPECT_EQ(g.name(), "ibm-q20-tokyo");
}

TEST(Layouts, Q20TokyoHasPaperLinks)
{
    // Links named in the paper's Fig. 8 time-series: CX6_5,
    // CX19_13, CX5_11; plus the Q14-Q18 worst link of Fig. 9.
    const CouplingGraph g = ibmQ20Tokyo();
    EXPECT_TRUE(g.coupled(6, 5));
    EXPECT_TRUE(g.coupled(19, 13));
    EXPECT_TRUE(g.coupled(5, 11));
    EXPECT_TRUE(g.coupled(14, 18));
}

TEST(Layouts, Q20TokyoRowsAndColumns)
{
    const CouplingGraph g = ibmQ20Tokyo();
    // Row neighbours.
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c + 1 < 5; ++c)
            EXPECT_TRUE(g.coupled(r * 5 + c, r * 5 + c + 1));
    }
    // Column neighbours.
    for (int r = 0; r + 1 < 4; ++r) {
        for (int c = 0; c < 5; ++c)
            EXPECT_TRUE(g.coupled(r * 5 + c, (r + 1) * 5 + c));
    }
    // Far corners are not directly coupled.
    EXPECT_FALSE(g.coupled(0, 19));
}

TEST(Layouts, Q5TenerifeShape)
{
    const CouplingGraph g = ibmQ5Tenerife();
    EXPECT_EQ(g.numQubits(), 5);
    EXPECT_EQ(g.linkCount(), 6u);
    EXPECT_TRUE(g.isConnected());
    // The bowtie's hub.
    EXPECT_EQ(g.degree(2), 4u);
    EXPECT_FALSE(g.coupled(0, 3));
    EXPECT_FALSE(g.coupled(1, 4));
}

TEST(Layouts, LinearChain)
{
    const CouplingGraph g = linear(6);
    EXPECT_EQ(g.linkCount(), 5u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(3), 2u);
    EXPECT_EQ(linear(1).linkCount(), 0u);
    EXPECT_THROW(linear(0), VaqError);
}

TEST(Layouts, RingWrapsAround)
{
    const CouplingGraph g = ring(5);
    EXPECT_EQ(g.linkCount(), 5u);
    EXPECT_TRUE(g.coupled(4, 0));
    for (int q = 0; q < 5; ++q)
        EXPECT_EQ(g.degree(q), 2u);
    EXPECT_THROW(ring(2), VaqError);
}

TEST(Layouts, GridStructure)
{
    const CouplingGraph g = grid(2, 3);
    EXPECT_EQ(g.numQubits(), 6);
    EXPECT_EQ(g.linkCount(), 7u);
    EXPECT_TRUE(g.coupled(0, 1));
    EXPECT_TRUE(g.coupled(0, 3));
    EXPECT_FALSE(g.coupled(0, 4));
    EXPECT_EQ(g.hopDistances()[0][5], 3);
    EXPECT_THROW(grid(0, 3), VaqError);
}

TEST(Layouts, FullyConnected)
{
    const CouplingGraph g = fullyConnected(5);
    EXPECT_EQ(g.linkCount(), 10u);
    for (int a = 0; a < 5; ++a) {
        for (int b = 0; b < 5; ++b) {
            if (a != b) {
                EXPECT_TRUE(g.coupled(a, b));
            }
        }
    }
}

TEST(Layouts, Falcon27HeavyHex)
{
    const CouplingGraph g = ibmFalcon27();
    EXPECT_EQ(g.numQubits(), 27);
    EXPECT_EQ(g.linkCount(), 28u);
    EXPECT_TRUE(g.isConnected());
    // Heavy-hex: degrees are 1, 2 or 3 only.
    for (int q = 0; q < g.numQubits(); ++q) {
        EXPECT_GE(g.degree(q), 1u);
        EXPECT_LE(g.degree(q), 3u);
    }
    // Spot-check published couplings.
    EXPECT_TRUE(g.coupled(1, 4));
    EXPECT_TRUE(g.coupled(12, 15));
    EXPECT_FALSE(g.coupled(0, 2));
}

TEST(Layouts, GridDegenerateCases)
{
    EXPECT_EQ(grid(1, 1).numQubits(), 1);
    EXPECT_EQ(grid(1, 4).linkCount(), 3u);
}

TEST(Layouts, MachineByNameParsesEverySpelling)
{
    EXPECT_EQ(machineByName("q20").numQubits(), 20);
    EXPECT_EQ(machineByName("q5").numQubits(), 5);
    EXPECT_EQ(machineByName("falcon27").numQubits(), 27);
    EXPECT_EQ(machineByName("line:4").linkCount(), 3u);
    EXPECT_EQ(machineByName("ring:6").linkCount(), 6u);
    const CouplingGraph mesh = machineByName("grid:2x3");
    EXPECT_EQ(mesh.numQubits(), 6);
    EXPECT_EQ(mesh.linkCount(), grid(2, 3).linkCount());

    EXPECT_THROW(machineByName("grid:3"), VaqError);
    EXPECT_THROW(machineByName("line:"), VaqError);
    EXPECT_THROW(machineByName("mars"), VaqError);
}

} // namespace
} // namespace vaq::topology
