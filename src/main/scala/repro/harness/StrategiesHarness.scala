package repro.harness

import org.apache.spark.sql.SparkSession
import repro.batch.{BatchBackend, ShadowNodes}
import repro.batch.BatchBackend.BatchOpts
import repro.core.Models
import repro.graphgen.GraphGen
import repro.metrics.{Cost, SparkCost}

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

  /** The study's numbers; every `*Cut` is a percentage of its baseline. */
  final case class Result(cfg: Config, inEdges: Long, pgOff: Cost, pgOn: Cost,
                          outEdges: Long, maxOut: Long, threshold: Long, hubs: Int, hubEdges: Long,
                          base: Cost, bc: Cost, mirrors: Long, maxOutAfterSplit: Long) {
    def pgRecordsCut: Double = cut(pgOff.shuffleWriteRecords, pgOn.shuffleWriteRecords)
    def pgBytesCut: Double = cut(pgOff.shuffleWriteBytes, pgOn.shuffleWriteBytes)
    def bcRecordsCut: Double = cut(base.shuffleWriteRecords, bc.shuffleWriteRecords)
    def bcBytesCut: Double = cut(base.shuffleWriteBytes, bc.shuffleWriteBytes)

    def report: String = {
      def pct(x: Double) = f"$x%.1f%%"
      s"""partial-gather (in-skew graph, ${cfg.nNodes} nodes, $inEdges edges):
         |  shuffle write records: off=${pgOff.shuffleWriteRecords} on=${pgOn.shuffleWriteRecords} (reduction ${pct(pgRecordsCut)})
         |  shuffle write bytes:   off=${pgOff.shuffleWriteBytes} on=${pgOn.shuffleWriteBytes} (reduction ${pct(pgBytesCut)})
         |
         |out-skew graph: $outEdges edges, max out-degree $maxOut, hub threshold $threshold (lambda=${ShadowNodes.Lambda}, simulated workers=${cfg.numWorkers}), hub edges=$hubEdges
         |broadcast: shuffle write bytes base=${base.shuffleWriteBytes} bc=${bc.shuffleWriteBytes} (reduction ${pct(bcBytesCut)}); records base=${base.shuffleWriteRecords} bc=${bc.shuffleWriteRecords} (reduction ${pct(bcRecordsCut)})
         |shadow-nodes: hubs=$hubs mirrors=$mirrors, max out-degree $maxOut -> $maxOutAfterSplit (threshold $threshold)
         |""".stripMargin
    }
  }

  private def cut(before: Long, after: Long): Double = 100.0 * (before - after) / math.max(1L, before)

  def run(spark: SparkSession, cfg: Config = Config()): Result = {
    val model = Models.sage(Seq(16, 16))

    // --- partial-gather: in-degree power law ---
    val inSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = true)
    val inNodes = GraphGen.nodes(spark, inSpec).cache()
    val inEdges = GraphGen.edges(spark, inSpec).cache()
    inNodes.count(); val inE = inEdges.count()
    val (_, pgOff) = SparkCost.measure(spark, "strat-pg-off") {
      BatchBackend.run(spark, inNodes, inEdges, model, BatchOpts(partialGather = false)).count()
    }
    val (_, pgOn) = SparkCost.measure(spark, "strat-pg-on") {
      BatchBackend.run(spark, inNodes, inEdges, model, BatchOpts(partialGather = true)).count()
    }
    inNodes.unpersist(); inEdges.unpersist()

    // --- broadcast + shadow-nodes: out-degree power law (heavier tail) ---
    val outSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = false, alpha = 1.5)
    val outNodes = GraphGen.nodes(spark, outSpec).cache()
    val outEdges = GraphGen.edges(spark, outSpec).cache()
    outNodes.count(); val totalE = outEdges.count()
    val thr = ShadowNodes.threshold(totalE, cfg.numWorkers)
    val maxOut = ShadowNodes.maxOutDegree(outEdges)
    val hubs = ShadowNodes.hubs(outEdges, thr)

    val noCombiner = BatchOpts(partialGather = false, numWorkers = cfg.numWorkers)
    val (_, base) = SparkCost.measure(spark, "strat-base") {
      BatchBackend.run(spark, outNodes, outEdges, model, noCombiner).count()
    }
    val (_, bc) = SparkCost.measure(spark, "strat-bc") {
      BatchBackend.run(spark, outNodes, outEdges, model,
        noCombiner.copy(broadcastHubs = true)).count()
    }

    val shadowed = ShadowNodes.transform(spark, outNodes, outEdges, thr)
    outNodes.unpersist(); outEdges.unpersist()
    Result(cfg, inE, pgOff, pgOn, totalE, maxOut, thr, hubs.size, hubs.values.sum, base, bc,
      shadowed.nMirrors, shadowed.maxOutAfterSplit)
  }
}
