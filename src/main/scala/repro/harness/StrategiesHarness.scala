package repro.harness

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.batch.{BatchBackend, ShadowNodes}
import repro.batch.BatchBackend.BatchOpts
import repro.core.Models
import repro.graphgen.GraphGen
import repro.metrics.SparkCost

/** Strategy studies backing the paper's Figs. 9–13 (figures are out of
  * scope; the load-balancing effect is reported as shuffle-traffic and
  * degree-balance numbers instead):
  *  - partial-gather on a power-law **in**-degree graph → shuffle records
  *    and bytes drop (paper: ~25% total IO, up to 73% for tail workers);
  *  - broadcast on a power-law **out**-degree graph → hub messages leave
  *    the shuffle entirely (paper: 42% tail-worker IO reduction). Measured
  *    with the combiner off so every remaining edge message crosses the
  *    shuffle, isolating the broadcast effect;
  *  - shadow-nodes on the same graph → max out-degree per vertex capped at
  *    the threshold (paper: 53% tail IO reduction), results unchanged.
  *
  * `numWorkers` plays the paper's cluster width in the threshold heuristic
  * (λ·|E|/workers); 200 simulated workers gives a threshold low enough for
  * a realistic hub population at this scale.
  */
object StrategiesHarness {

  final case class Config(nNodes: Long = 20000, avgDeg: Double = 15, numWorkers: Int = 200)

  private def pct(before: Long, after: Long): String =
    f"${100.0 * (before - after) / math.max(1L, before)}%.1f%%"

  def run(spark: SparkSession, cfg: Config = Config()): String = {
    val sb = new StringBuilder
    val model = Models.sage(Seq(16, 16))

    // --- partial-gather: in-degree power law ---
    val inSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = true)
    val inNodes = GraphGen.nodes(spark, inSpec).cache()
    val inEdges = GraphGen.edges(spark, inSpec).cache()
    inNodes.count(); inEdges.count()
    val (_, pgOff) = SparkCost.measure(spark, "strat-pg-off") {
      BatchBackend.run(spark, inNodes, inEdges, model, BatchOpts(partialGather = false)).count()
    }
    val (_, pgOn) = SparkCost.measure(spark, "strat-pg-on") {
      BatchBackend.run(spark, inNodes, inEdges, model, BatchOpts(partialGather = true)).count()
    }
    sb ++= s"partial-gather (in-skew graph, ${cfg.nNodes} nodes, ${inEdges.count()} edges):\n"
    sb ++= s"  shuffle write records: off=${pgOff.shuffleWriteRecords} on=${pgOn.shuffleWriteRecords} " +
      s"(reduction ${pct(pgOff.shuffleWriteRecords, pgOn.shuffleWriteRecords)})\n"
    sb ++= s"  shuffle write bytes:   off=${pgOff.shuffleWriteBytes} on=${pgOn.shuffleWriteBytes} " +
      s"(reduction ${pct(pgOff.shuffleWriteBytes, pgOn.shuffleWriteBytes)})\n"
    inNodes.unpersist(); inEdges.unpersist()

    // --- broadcast + shadow-nodes: out-degree power law (heavier tail) ---
    val outSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = false, alpha = 1.5)
    val outNodes = GraphGen.nodes(spark, outSpec).cache()
    val outEdges = GraphGen.edges(spark, outSpec).cache()
    outNodes.count()
    val totalE = outEdges.count()
    val thr = ShadowNodes.threshold(totalE, cfg.numWorkers)
    val maxOut = outEdges.groupBy("src").count().agg(max("count")).head().getLong(0)
    val hubEdgeCount = {
      val hubs = outEdges.groupBy("src").count().filter(col("count") > thr)
      outEdges.join(hubs.select(col("src").as("h")), outEdges("src") === col("h")).count()
    }
    sb ++= s"\nout-skew graph: $totalE edges, max out-degree $maxOut, hub threshold $thr " +
      s"(lambda=${ShadowNodes.Lambda}, simulated workers=${cfg.numWorkers}), hub edges=$hubEdgeCount\n"

    val noCombiner = BatchOpts(partialGather = false, numWorkers = cfg.numWorkers)
    val (_, base) = SparkCost.measure(spark, "strat-base") {
      BatchBackend.run(spark, outNodes, outEdges, model, noCombiner).count()
    }
    val (_, bc) = SparkCost.measure(spark, "strat-bc") {
      BatchBackend.run(spark, outNodes, outEdges, model,
        noCombiner.copy(broadcastHubs = true)).count()
    }
    sb ++= s"broadcast: shuffle write bytes base=${base.shuffleWriteBytes} bc=${bc.shuffleWriteBytes} " +
      s"(reduction ${pct(base.shuffleWriteBytes, bc.shuffleWriteBytes)}); " +
      s"records base=${base.shuffleWriteRecords} bc=${bc.shuffleWriteRecords} " +
      s"(reduction ${pct(base.shuffleWriteRecords, bc.shuffleWriteRecords)})\n"

    val shadowed = ShadowNodes.transform(spark, outNodes, outEdges, thr)
    sb ++= s"shadow-nodes: hubs=${shadowed.nHubs} mirrors=${shadowed.nMirrors}, " +
      s"max out-degree $maxOut -> ${shadowed.maxOutAfterSplit} (threshold $thr)\n"
    outNodes.unpersist(); outEdges.unpersist()
    sb.toString
  }
}
