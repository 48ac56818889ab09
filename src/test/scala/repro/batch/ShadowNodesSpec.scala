package repro.batch

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graphgen.GraphGen

class ShadowNodesSpec extends SparkSpec {

  private lazy val spec = GraphGen.powerLaw(300, avgDeg = 10, inSkew = false, seed = 81L)
  private lazy val nodes = GraphGen.nodes(spark, spec).cache()
  private lazy val edges = GraphGen.edges(spark, spec).cache()

  test("threshold heuristic: lambda * |E| / workers") {
    assert(ShadowNodes.threshold(1000000, 100) == 1000)
    assert(ShadowNodes.threshold(1000000000L, 1000) == 100000) // the paper's setting
    assert(ShadowNodes.threshold(10, 1000) == 1) // floor at 1
  }

  test("no hubs above threshold → graph unchanged") {
    val s = ShadowNodes.transform(spark, nodes, edges, thr = 1000000)
    assert(s.nHubs == 0 && s.nMirrors == 0)
    assert(s.edges.count() == edges.count() && s.nodes.count() == nodes.count())
  }

  test("after the split no vertex exceeds the out-degree threshold") {
    val thr = 30L
    val s = ShadowNodes.transform(spark, nodes, edges, thr)
    assert(s.nHubs > 0, "fixture has no hubs — weak test")
    // measured before in-edge duplication: copies of edges into *other*
    // hubs inflate sender out-degrees afterwards (the paper's acknowledged
    // overhead), but each mirror's own out-edge slice is capped
    assert(s.maxOutAfterSplit <= thr, s"max out-degree ${s.maxOutAfterSplit} still above $thr")
  }

  test("out-edge multiset is preserved (dst,w pairs per original graph)") {
    val thr = 30L
    val s = ShadowNodes.transform(spark, nodes, edges, thr)
    // collapsing mirror srcs back: total out-edges must match, and the
    // multiset of (dst expanded) differs only by hub-dst duplication.
    // src side: every original edge appears exactly once before in-edge copy,
    // so counting by dst over NON-hub dsts must match the original exactly.
    val hubDsts = edges.groupBy("src").count().filter(col("count") > thr)
      .select(col("src").as("h")).collect().map(_.getLong(0)).toSet
    val origIn = edges.filter(!col("dst").isInCollection(hubDsts))
      .groupBy("dst").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val newIn = s.edges.filter(!col("dst").isInCollection(hubDsts))
      .groupBy("dst").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    // non-hub original vertices keep their exact in-degree (mirror ids are new)
    val mirrorsStart = nodes.agg(max("id")).head().getLong(0) + 1
    origIn.foreach { case (d, c) => assert(newIn.getOrElse(d, 0L) == c, s"dst $d in-degree changed") }
    newIn.keys.filter(_ < mirrorsStart).foreach(d => assert(origIn.contains(d)))
  }

  test("hub in-edges are copied to every mirror") {
    val thr = 30L
    val s = ShadowNodes.transform(spark, nodes, edges, thr)
    val outDeg = edges.groupBy("src").agg(count(lit(1)).as("deg"))
    val hubs = outDeg.filter(col("deg") > thr).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val origInDeg = edges.groupBy("dst").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    // total in-edges pointing at hub h (over all its mirrors) = indeg(h) * nGroups
    val base = nodes.agg(max("id")).head().getLong(0) + 1
    val totalNewIn = s.edges.groupBy("dst").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    hubs.foreach { case (h, deg) =>
      val nGroups = math.ceil(deg.toDouble / thr).toLong
      val inH = origInDeg.getOrElse(h, 0L)
      val own = totalNewIn.getOrElse(h, 0L)
      val mirrorIn = totalNewIn.filter { case (id, _) => id >= base }.values.sum
      assert(own == inH, s"hub $h kept in-degree $own != $inH")
      // can't attribute mirrors per hub without internals; check totals below
      assert(nGroups >= 2 && mirrorIn >= 0)
    }
    // global balance: extra in-edges == Σ_hub indeg(h) * (nGroups(h)-1)
    val expectExtra = hubs.map { case (h, deg) =>
      origInDeg.getOrElse(h, 0L) * (math.ceil(deg.toDouble / thr).toLong - 1)
    }.sum
    assert(s.edges.count() == edges.count() + expectExtra)
  }

  test("mirror vertices copy the hub's features (oracle row count check)") {
    val thr = 30L
    val s = ShadowNodes.transform(spark, nodes, edges, thr)
    assert(s.nodes.count() == nodes.count() + s.nMirrors)
    // mirror feature rows equal some hub's features
    val base = nodes.agg(max("id")).head().getLong(0) + 1
    val hubFeats = nodes.collect().map(r => r.getLong(0) -> r.getSeq[Double](1)).toMap
    s.nodes.filter(col("id") >= base).collect().foreach { r =>
      assert(hubFeats.values.exists(_ == r.getSeq[Double](1)), "mirror features not copied from a hub")
    }
  }

  test("edge conservation cross-checked against DuckDB (oracle)") {
    val thr = 30L
    val s = ShadowNodes.transform(spark, nodes, edges, thr)
    // per-dst in-degree of untouched (non-hub) destinations must agree with
    // DuckDB computed over the ORIGINAL edge table.
    val hubDsts = edges.groupBy("src").count().filter(col("count") > thr)
      .select(col("src")).collect().map(_.getLong(0)).toSet
    val mirrorsStart = nodes.agg(max("id")).head().getLong(0) + 1
    val sparkSide = s.edges
      .filter(!col("dst").isInCollection(hubDsts) && col("dst") < mirrorsStart)
      .groupBy("dst").agg(count(lit(1)).as("deg"))
    val hubList = if (hubDsts.isEmpty) "-1" else hubDsts.mkString(",")
    Oracle.assertEquivalent(
      sparkSide,
      s"SELECT CAST(dst AS BIGINT) AS dst, COUNT(*) AS deg FROM edges " +
        s"WHERE CAST(dst AS BIGINT) NOT IN ($hubList) GROUP BY dst",
      "edges" -> edges)
  }

  test("hub map equals DuckDB's out-degree count above the threshold (oracle)") {
    import spark.implicits._
    val hubs = ShadowNodes.hubs(edges, 30L)
    assert(hubs.nonEmpty, "fixture has no hubs — weak test")
    Oracle.assertEquivalent(
      hubs.toSeq.toDF("src", "deg"),
      "SELECT CAST(src AS BIGINT) AS src, COUNT(*) AS deg FROM edges GROUP BY src HAVING COUNT(*) > 30",
      "edges" -> edges)
  }

  test("mirror ids past Long.MaxValue fail before the split, naming max id and mirror count") {
    import spark.implicits._
    // hub 0 has out-degree 9: at threshold 3 it needs two extra mirrors
    val edges = (1L to 9L).map(d => (0L, d, 1.0)).toDF("src", "dst", "w")
    def nodesUpTo(maxId: Long) = ((0L until 10L) :+ maxId).map(id => (id, Array(1.0, id.toDouble))).toDF("id", "feat")
    val err = intercept[IllegalArgumentException] {
      ShadowNodes.transform(spark, nodesUpTo(Long.MaxValue - 1), edges, thr = 3L)
    }
    assert(err.getMessage.contains(s"max vertex id ${Long.MaxValue - 1}") && err.getMessage.contains("2 mirrors"),
      err.getMessage)
    // one id lower, the two mirrors end exactly at Long.MaxValue
    val s = ShadowNodes.transform(spark, nodesUpTo(Long.MaxValue - 2), edges, thr = 3L)
    assert(s.nMirrors == 2)
    assert(s.nodes.select("id").filter(col("id") > Long.MaxValue - 2).as[Long].collect().sorted.toSeq ==
      Seq(Long.MaxValue - 1, Long.MaxValue))
  }
}
