package repro

import org.scalacheck.{Gen, Prop, Test}
import repro.BackendTestUtil.assertMatchesLocal
import repro.batch.BatchBackend
import repro.batch.BatchBackend.BatchOpts
import repro.core.{GnnModel, LocalGraph, LocalInference, Models}
import repro.nn.DMat
import repro.pregel.PregelBackend

/** Both backends against `LocalInference` on small generated graphs with
  * the shapes that break graph code: an empty edge table, vertices with no
  * edges at all, self-loops, multi-edges and dangling edges. Vertex ids are
  * not the local indices (`id = 7·i + 3`). MR also runs the broadcast and
  * shadow-node strategies, where almost every source is a hub, with and
  * without the spill.
  */
class GeneratedGraphSpec extends SparkSpec {

  /** `n` vertices, of which only the first `linked` may have edges, and
    * `dangling` edges by vertex id, each with an end that has no node row.
    */
  private final case class SmallGraph(n: Int, linked: Int, edges: Seq[(Int, Int, Double)],
                                      dangling: Seq[(Long, Long, Double)], seed: Long, gat: Boolean) {
    override def toString: String =
      s"SmallGraph(n=$n, linked=$linked, seed=$seed, gat=$gat, edges=${edges.mkString(" ")}, " +
        s"dangling=${dangling.mkString(" ")})"
  }

  private val genGraph: Gen[SmallGraph] = for {
    linked <- Gen.choose(1, 8)
    isolated <- Gen.choose(0, 3)
    m <- Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, 3 * linked))
    drawn <- Gen.listOfN(m, for {
      s <- Gen.choose(0, linked - 1)
      d <- Gen.choose(0, linked - 1)
      w <- Gen.choose(0.1, 2.0)
    } yield (s, d, w))
    loops <- Gen.someOf(0 until linked).map(_.toSeq.map(i => (i, i, 1.0)))
    copies <- Gen.choose(0, drawn.size)
    // ids with no node row: between two vertices' ids, or just above the
    // largest, where shadow-nodes puts its mirrors
    maxId = id(linked + isolated - 1)
    missing = Gen.oneOf(Gen.choose(1L, 4L).map(maxId + _), Gen.choose(0, linked + isolated - 1).map(id(_) + 1))
    vertex = Gen.choose(0, linked - 1).map(id)
    dangling <- Gen.frequency(1 -> Gen.const(Nil), 2 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, for {
      (s, d) <- Gen.oneOf(Gen.zip(vertex, missing), Gen.zip(missing, vertex), Gen.zip(missing, missing))
      w <- Gen.choose(0.1, 2.0)
    } yield (s, d, w))))
    seed <- Gen.choose(0L, 1000L)
    gat <- Gen.oneOf(true, false)
  } yield {
    val es = if (m == 0) Nil else drawn ++ loops ++ drawn.take(copies)
    SmallGraph(linked + isolated, linked, es, dangling, seed, gat)
  }

  private def id(i: Int): Long = 7L * i + 3

  /** Every backend run below, each compared with the reference to 1e-8. */
  private def check(g: SmallGraph): Unit = {
    import spark.implicits._
    val rng = new scala.util.Random(g.seed)
    val feats = Array.fill(g.n)(Array.fill(4)(rng.nextGaussian()))
    val nodes = feats.indices.map(i => (id(i), feats(i))).toDF("id", "feat")
    val edges = (g.edges.map { case (s, d, w) => (id(s), id(d), w) } ++ g.dangling).toDF("src", "dst", "w")
    val local = LocalGraph(g.n, feats.indices.map(id).toArray, g.edges.map(_._1).toArray,
      g.edges.map(_._2).toArray, g.edges.map(_._3).toArray, DMat.fromRows(feats.toIndexedSeq), null,
      new Array[Int](g.n))
    val model: GnnModel = if (g.gat) Models.gat(Seq(4, 4, 3), heads = 2) else Models.sage(Seq(4, 4, 3))
    val ref = LocalInference.forward(local, model)
    // at the default 64 workers these graphs have threshold 1: every source
    // with two out-edges or more is a hub, a dangling one included
    for (pg <- Seq(true, false); spill <- Seq(true, false);
         strategy <- Seq(BatchOpts(), BatchOpts(broadcastHubs = true), BatchOpts(shadowNodes = true))) {
      val dir = if (spill) Some(java.nio.file.Files.createTempDirectory("gen-graph").toString) else None
      assertMatchesLocal(BatchBackend.run(spark, nodes, edges, model, strategy.copy(partialGather = pg, spillDir = dir)),
        local, ref, tol = 1e-8)
    }
    assertMatchesLocal(PregelBackend.run(spark, nodes, edges, model), local, ref, tol = 1e-8)
  }

  test("an empty edge table: every vertex keeps only its own state") {
    check(SmallGraph(n = 5, linked = 5, edges = Nil, dangling = Nil, seed = 1L, gat = false))
    check(SmallGraph(n = 5, linked = 5, edges = Nil, dangling = Nil, seed = 2L, gat = true))
  }

  test("generated graphs: MR with and without partial-gather and spill, and Pregel, match LocalInference") {
    val prop = Prop.forAllNoShrink(genGraph) { g => check(g); true }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(12).withWorkers(1), prop)
    assert(result.passed, result.status.toString)
  }
}
