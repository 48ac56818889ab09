package repro.graphgen

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class GraphGenSpec extends SparkSpec {

  private val spec = GraphSpec(nNodes = 500, avgOutDeg = 6, featDim = 8, nClasses = 5,
    homophily = 0.7, noise = 0.5, seed = 77L)

  test("node count and schema") {
    val n = GraphGen.nodes(spark, spec)
    assert(n.count() == 500)
    assert(n.columns.toSet == Set("id", "feat", "label", "labels"))
    val r = n.orderBy("id").head()
    assert(r.getSeq[Double](1).size == spec.featDim)
  }

  test("generation is deterministic and partition-independent") {
    val a = GraphGen.nodes(spark, spec).collect().map(r => (r.getLong(0), r.getSeq[Double](1))).sortBy(_._1)
    val b = GraphGen.nodes(spark, spec).repartition(13).collect().map(r => (r.getLong(0), r.getSeq[Double](1))).sortBy(_._1)
    assert(a.toSeq == b.toSeq)
    val e1 = GraphGen.edges(spark, spec).collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    val e2 = GraphGen.edges(spark, spec).repartition(7).collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(e1 == e2)
    // generated in a given number of partitions: the same graph
    val c = GraphGen.nodes(spark, spec, Some(3))
    assert(c.rdd.getNumPartitions == 3)
    assert(c.collect().map(r => (r.getLong(0), r.getSeq[Double](1))).sortBy(_._1).toSeq == a.toSeq)
    val e3 = GraphGen.edges(spark, spec, Some(3))
    assert(e3.rdd.getNumPartitions == 3)
    assert(e3.collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq == e1)
  }

  test("label is id mod nClasses") {
    GraphGen.nodes(spark, spec).collect().foreach { r =>
      assert(r.getInt(2) == (r.getLong(0) % spec.nClasses).toInt)
    }
  }

  test("single-label graphs have labels == [label]") {
    GraphGen.nodes(spark, spec).collect().foreach { r =>
      assert(r.getSeq[Int](3) == Seq(r.getInt(2)))
    }
  }

  test("multi-label graphs always contain the base class") {
    val ml = spec.copy(multiLabel = true, labelsPerNode = 3)
    GraphGen.nodes(spark, ml).collect().foreach { r =>
      val ls = r.getSeq[Int](3)
      assert(ls.contains(r.getInt(2)) && ls == ls.sorted && ls.distinct == ls)
    }
  }

  test("edges stay in range and have no self-loops") {
    GraphGen.edges(spark, spec).collect().foreach { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      assert(s >= 0 && s < spec.nNodes && d >= 0 && d < spec.nNodes && s != d)
    }
  }

  test("average out-degree is close to the spec") {
    val e = GraphGen.edges(spark, spec).count()
    val avg = e.toDouble / spec.nNodes
    assert(math.abs(avg - spec.avgOutDeg) < 1.0, s"avg degree $avg")
  }

  test("homophily: most edges connect same-class vertices") {
    val e = GraphGen.edges(spark, spec)
    val same = e.filter(pmod(col("src"), lit(spec.nClasses)) === pmod(col("dst"), lit(spec.nClasses))).count()
    val frac = same.toDouble / e.count()
    // expected ≈ h + (1-h)/C = 0.7 + 0.06
    assert(frac > 0.6 && frac < 0.9, s"same-class fraction $frac")
  }

  test("zipfOut produces out-degree hubs") {
    val z = GraphGen.powerLaw(2000, avgDeg = 8, inSkew = false)
    val deg = GraphGen.edges(spark, z).groupBy("src").count()
    val mx = deg.agg(max("count")).head().getLong(0)
    assert(mx > 5 * z.avgOutDeg, s"max out-degree $mx not a hub")
  }

  test("zipfIn produces in-degree hubs") {
    val z = GraphGen.powerLaw(2000, avgDeg = 8, inSkew = true)
    val deg = GraphGen.edges(spark, z).groupBy("dst").count()
    val mx = deg.agg(max("count")).head().getLong(0)
    assert(mx > 20 * z.avgOutDeg, s"max in-degree $mx not a hub")
  }

  test("edge weights honor [wMin, wMax]") {
    val ws = spec.copy(wMin = 0.5, wMax = 2.0)
    GraphGen.edges(spark, ws).collect().foreach { r =>
      val w = r.getDouble(2)
      assert(w >= 0.5 && w <= 2.0)
    }
    // default is constant 1
    GraphGen.edges(spark, spec).collect().foreach(r => assert(r.getDouble(2) == 1.0))
  }

  test("out-degree distribution matches DuckDB (oracle)") {
    val small = spec.copy(nNodes = 120, seed = 5)
    val e = GraphGen.edges(spark, small).cache()
    val sparkDeg = e.groupBy("src").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(
      sparkDeg,
      "SELECT CAST(src AS BIGINT) AS src, COUNT(*) AS deg FROM edges GROUP BY src",
      "edges" -> e)
  }

  test("toLocal preserves node order, features, labels, and edges") {
    val small = spec.copy(nNodes = 80, multiLabel = true)
    val nodes = GraphGen.nodes(spark, small)
    val edges = GraphGen.edges(spark, small)
    val g = GraphGen.toLocal(nodes, edges, small.nClasses)
    assert(g.n == 80 && g.ids.toSeq == (0L until 80L))
    assert(g.nEdges == edges.count())
    assert(g.featDim == small.featDim)
    (0 until g.n).foreach { i =>
      assert(g.yIdx(i) == i % small.nClasses)
      assert(g.y(i, g.yIdx(i)) == 1.0)
    }
    // every edge in the DataFrame appears in the local arrays
    val pairs = (0 until g.nEdges).map(e2 => (g.ids(g.src(e2)), g.ids(g.dst(e2)))).sorted
    val dfPairs = edges.collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(pairs == dfPairs)
  }

  test("dataset presets have the documented shapes") {
    assert(GraphGen.ppiLite().multiLabel)
    assert(!GraphGen.productLite().multiLabel)
    assert(GraphGen.magLite(0.5).nNodes == 10000)
    assert(GraphGen.powerLaw(1000, inSkew = true).zipfIn)
    assert(GraphGen.powerLaw(1000, inSkew = false).zipfOut)
  }

  test("mix hash differs across ids and seeds") {
    val vals = (0L until 1000L).map(GraphGen.mix(1L, _)).toSet
    assert(vals.size == 1000)
    assert(GraphGen.mix(1L, 5L) != GraphGen.mix(2L, 5L))
  }
}
