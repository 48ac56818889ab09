package repro.pregel

import repro.SparkSpec
import repro.BackendTestUtil.{assertMatchesLocal, fixture}
import repro.core.Models
import repro.graphgen.GraphSpec
import repro.metrics.SparkCost
import repro.pregel.PregelBackend.PregelOpts

class PregelBackendSpec extends SparkSpec {

  private lazy val fix = fixture(spark, GraphSpec(nNodes = 200, avgOutDeg = 4, featDim = 6,
    nClasses = 3, homophily = 0.3, seed = 55L, wMin = 0.5, wMax = 1.5))
  private lazy val sage2 = Models.sage(Seq(6, 4, 3))
  private lazy val gat2 = Models.gat(Seq(6, 4, 3), heads = 2)

  test("SAGE 2-layer: aggregateMessages loop matches the local reference") {
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, sage2),
      fix.local, fix.reference(sage2))
  }

  test("GAT 2-layer: loop mode matches") {
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, gat2),
      fix.local, fix.reference(gat2), tol = 1e-7)
  }

  test("partial-gather off (messages travel unioned) is exact for SAGE") {
    assertMatchesLocal(
      PregelBackend.run(spark, fix.nodes, fix.edges, sage2, PregelOpts(partialGather = false)),
      fix.local, fix.reference(sage2))
  }

  test("partial-gather off (attention messages travel unioned) is exact for GAT") {
    assertMatchesLocal(
      PregelBackend.run(spark, fix.nodes, fix.edges, gat2, PregelOpts(partialGather = false)),
      fix.local, fix.reference(gat2))
  }

  test("partial-gather combines GAT messages: fewer shuffle bytes than with it off") {
    def bytes(pg: Boolean): Long = SparkCost.measure(spark, s"pregel-gat-pg-$pg") {
      PregelBackend.run(spark, fix.nodes, fix.edges, gat2, PregelOpts(partialGather = pg)).collect()
    }._2.shuffleWriteBytes
    val (on, off) = (bytes(true), bytes(false))
    assert(on < off, s"partial-gather on wrote $on bytes, off wrote $off")
  }

  test("a duplicate vertex id fails the run with an error naming it") {
    val nodes = fix.nodes.union(fix.nodes.filter("id = 17"))
    val err = intercept[Exception] {
      PregelBackend.run(spark, nodes, fix.edges, sage2).collect()
    }
    val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      c.getMessage.contains("duplicate vertex id 17")), s"$err")
  }

  test("a feature vector of the wrong width fails the run, naming layer 0, the width and the vertex") {
    import org.apache.spark.sql.functions.{col, slice, when}
    val nodes = fix.nodes.withColumn("feat", when(col("id") === 17L, slice(col("feat"), 1, 5))
      .otherwise(col("feat")))
    Seq(sage2, gat2).foreach { m =>
      val err = intercept[Exception](PregelBackend.run(spark, nodes, fix.edges, m).collect())
      val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
      assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
        c.getMessage.contains("layer 0 expects features of width 6, vertex 17 has 5")), s"$err")
    }
  }

  test("edges with an end that has no node row are dropped, with partial-gather on and off") {
    import spark.implicits._
    val dangling = Seq((100000L, 17L, 1.0), (17L, 200000L, 1.0), (300000L, 400000L, 1.0)).toDF("src", "dst", "w")
    val edges = fix.edges.select("src", "dst", "w").union(dangling)
    for (m <- Seq(sage2, gat2); pg <- Seq(true, false))
      assertMatchesLocal(PregelBackend.run(spark, fix.nodes, edges, m, PregelOpts(partialGather = pg)),
        fix.local, fix.reference(m), tol = 1e-7)
  }

  test("1-layer and 3-layer model depths both work") {
    val m1 = Models.sage(Seq(6, 3))
    val m3 = Models.sage(Seq(6, 5, 4, 3))
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, m1),
      fix.local, fix.reference(m1))
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, m3),
      fix.local, fix.reference(m3))
  }

  test("zero-in-degree vertices advance every superstep (the marker-edge fix)") {
    import spark.implicits._
    // star: 0 -> 1..4; vertices 0..4, vertex 0 never receives messages and
    // must still advance every layer, with no keepalive edges or messages
    val nodes = (0L to 4L).map(i => (i, Seq.tabulate(3)(j => (i + j + 1).toDouble), 0, Seq(0)))
      .toDF("id", "feat", "label", "labels")
    val edges = (1L to 4L).map(d => (0L, d, 1.0)).toDF("src", "dst", "w")
    val m = Models.sage(Seq(3, 3, 2))
    val local = repro.graphgen.GraphGen.toLocal(nodes, edges, 2)
    val ref = repro.core.LocalInference.forward(local, m)
    assertMatchesLocal(PregelBackend.run(spark, nodes, edges, m), local, ref)
  }

  test("power-law in-degree graph (hub receivers) stays exact") {
    val fz = fixture(spark, repro.graphgen.GraphGen.powerLaw(500, avgDeg = 6, inSkew = true, seed = 66L))
    // each edge partition combines a hub's hundreds of in-messages into one
    // state per receiver (SAGE's weighted sum, GAT's online softmax)
    Seq(Models.sage(Seq(16, 8, 4)), Models.gat(Seq(16, 8, 4), heads = 2)).foreach { m =>
      assertMatchesLocal(PregelBackend.run(spark, fz.nodes, fz.edges, m), fz.local, fz.reference(m), tol = 1e-7)
    }
  }

  test("a NaN or infinite edge weight fails the run, naming the edge") {
    import spark.implicits._
    // chain 0 -> 1 -> 2 plus 3 -> 2 with a non-finite weight, which GAT would
    // ignore: the edge is refused all the same
    val nodes = (0L to 3L).map(i => (i, Seq.tabulate(3)(j => (i * 3 + j + 1) / 10.0))).toDF("id", "feat")
    val m = Models.gat(Seq(3, 4, 2), heads = 2)
    Seq(Double.NaN, Double.NegativeInfinity).foreach { bad =>
      val edges = Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (3L, 2L, bad)).toDF("src", "dst", "w")
      val err = intercept[Exception](PregelBackend.run(spark, nodes, edges, m).collect())
      val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null).toSeq
      assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
        c.getMessage.contains(s"non-finite weight $bad on edge 3 -> 2")), s"$err")
    }
  }
}
