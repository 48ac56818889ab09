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
  *
  * The study runs on a fixed layout, whatever the session's cores:
  * [[Partitions]] input partitions (so as many map tasks), twice as many SQL
  * shuffle partitions (`JobSession`'s rule at that many cores) and adaptive
  * coalescing down to no fewer than [[Partitions]]. Its cuts depend on the
  * layout. The combiner folds per map task, and LZ4 finds more repeated
  * payloads in larger blocks. Broadcast's list build ships a receiver's hub
  * in-edges once per map task that holds any, which with one layer is about
  * what the round then saves. On the session's own layout the broadcast
  * records cut was 11.0, 7.1, 4.3 and 2.7% at 2, 4, 8 and 16 cores.
  */
object StrategiesHarness {

  final case class Config(nNodes: Long = 20000, avgDeg: Double = 15, numWorkers: Int = 200)

  /** The study's input partitions: the layout of a 4-core session. */
  val Partitions = 4

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
    val layout = Seq("spark.sql.shuffle.partitions" -> 2 * Partitions,
      "spark.sql.adaptive.coalescePartitions.minPartitionNum" -> Partitions)
    val saved = layout.map { case (k, _) => k -> spark.conf.getOption(k) }
    layout.foreach { case (k, v) => spark.conf.set(k, v.toLong) }
    try study(spark, cfg)
    finally saved.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  private def study(spark: SparkSession, cfg: Config): Result = {
    val model = Models.sage(Seq(16, 16))
    val parts = Some(Partitions)

    // --- partial-gather: in-degree power law ---
    val inSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = true)
    val inNodes = GraphGen.nodes(spark, inSpec, parts).cache()
    val inEdges = GraphGen.edges(spark, inSpec, parts).cache()
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
    val outNodes = GraphGen.nodes(spark, outSpec, parts).cache()
    val outEdges = GraphGen.edges(spark, outSpec, parts).cache()
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
