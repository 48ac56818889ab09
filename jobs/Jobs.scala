package repro.jobs

import org.apache.spark.SparkConf
import org.apache.spark.graphx.GraphXUtils
import org.apache.spark.sql.SparkSession
import repro.core.{EmptyAgg, Pooled, SoftmaxPool, Unioned}
import repro.harness._

/** Shared session builder for the spark-submit entrypoints, the benchmark
  * and the tests.
  *
  * Kryo carries the GraphX backend's RDD shuffles (payloads and `Agg`
  * messages), so the message classes and GraphX's own classes are
  * registered. Every MR exchange, the edge lists' included, carries Dataset
  * rows in Spark's own encoders.
  *
  * The SQL shuffle, which carries every MR exchange, gets two partitions per
  * core ([[shufflePartitions]]); GraphX's RDD shuffles follow
  * `defaultParallelism` on their own.
  */
object JobSession {
  def make(name: String): SparkSession = {
    // registerKryoClasses also selects the KryoSerializer
    val conf = new SparkConf().registerKryoClasses(Array(
      classOf[Pooled], classOf[SoftmaxPool], classOf[Unioned], EmptyAgg.getClass, classOf[Array[Double]]))
    GraphXUtils.registerKryoClasses(conf)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config(conf)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.conf.set("spark.sql.shuffle.partitions",
      shufflePartitions(sys.env, spark.sparkContext.defaultParallelism).toLong)
    spark
  }

  /** `spark.sql.shuffle.partitions` for a session with `cores` cores:
    * `SPARK_SHUFFLE_PARTITIONS` if `env` sets it, else `2 × cores`. Each MR
    * map task writes one shuffle block per partition, and adaptive execution
    * coalesces the reduce side into a few partitions anyway, so a fixed 64
    * on 4 cores paid 64 writers and compression streams per task for
    * nothing. The factor 2 is a measurement on 4 cores, not a derivation:
    * one per core ran the benchmark faster still, but its larger blocks let
    * LZ4 find most of the payload copies an uncombined round repeats along a
    * source's out-edges, so the shuffle bytes that partial-gather saves fell
    * from 37% to 13% in `StrategiesHarness`.
    */
  def shufflePartitions(env: Map[String, String], cores: Int): Int =
    env.get("SPARK_SHUFFLE_PARTITIONS").fold(2 * cores)(_.toInt)

  def scaleArg(args: Array[String], default: Double): Double =
    args.headOption.map(_.toDouble).getOrElse(default)
}

/** Table I — dataset summary. Usage: Table1Job [scale]. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("inferturbo-table1")
    try println(Table1Harness.run(spark, JobSession.scaleArg(args, 1.0)))
    finally spark.stop()
  }
}

/** Table II — prediction performance across pipelines. Usage: Table2Job [epochs]. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("inferturbo-table2")
    val cfg = Table2Harness.Config(epochs = args.headOption.map(_.toInt).getOrElse(20))
    try println(Table2Harness.run(spark, cfg))
    finally spark.stop()
  }
}

/** Table III — time/resource across systems. Usage: Table3Job [magScale]. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("inferturbo-table3")
    val cfg = Table3Harness.Config(magScale = JobSession.scaleArg(args, 0.5))
    try println(Table3Harness.run(spark, cfg))
    finally spark.stop()
  }
}

/** Table IV — time/resource vs hops. Usage: Table4Job [magScale]. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("inferturbo-table4")
    val cfg = Table4Harness.Config(magScale = JobSession.scaleArg(args, 0.5))
    try println(Table4Harness.run(spark, cfg))
    finally spark.stop()
  }
}

/** Strategy studies (partial-gather / broadcast / shadow-nodes IO effects). */
object StrategiesJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("inferturbo-strategies")
    val cfg = StrategiesHarness.Config(
      nNodes = args.headOption.map(_.toLong).getOrElse(20000L))
    try println(StrategiesHarness.run(spark, cfg).report)
    finally spark.stop()
  }
}
